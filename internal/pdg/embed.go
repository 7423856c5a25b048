package pdg

import (
	"fmt"
	"strconv"
	"strings"

	"noelle/internal/ir"
)

// Metadata key used by noelle-meta-pdg-embed: one entry per function,
// holding the function's dependence edges keyed by deterministic
// instruction IDs.
const mdKeyPrefix = "noelle.pdg."

// Embed serializes per-function PDGs into module metadata so later tool
// invocations can reconstruct them without re-running the alias analyses
// (the paper's noelle-meta-pdg-embed). IDs must be assigned first.
func Embed(m *ir.Module, graphs map[*ir.Function]*Graph) {
	for f, g := range graphs {
		var sb strings.Builder
		for _, e := range g.SortedEdges() {
			if e.From.ID < 0 || e.To.ID < 0 {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strconv.Itoa(e.From.ID))
			sb.WriteByte('>')
			sb.WriteString(strconv.Itoa(e.To.ID))
			sb.WriteByte(':')
			sb.WriteString(EncodeEdgeFlags(e))
		}
		m.SetMD(mdKeyPrefix+f.Nam, sb.String())
	}
}

// EncodeEdgeFlags renders an edge's flags in the compact form the embed
// metadata and the abscache record codec share: [c][m]<class>[M][L].
func EncodeEdgeFlags(e *Edge) string {
	var b strings.Builder
	if e.Control {
		b.WriteByte('c')
	}
	if e.Memory {
		b.WriteByte('m')
	}
	b.WriteByte('0' + byte(e.Class))
	if e.Must {
		b.WriteByte('M')
	}
	if e.LoopCarried {
		b.WriteByte('L')
	}
	return b.String()
}

// DecodeEdgeFlags applies an EncodeEdgeFlags string to e.
func DecodeEdgeFlags(e *Edge, flags string) error {
	for _, c := range flags {
		switch c {
		case 'c':
			e.Control = true
		case 'm':
			e.Memory = true
		case '0', '1', '2':
			e.Class = DepClass(c - '0')
		case 'M':
			e.Must = true
		case 'L':
			e.LoopCarried = true
		default:
			return fmt.Errorf("pdg: unknown flag %q in %q", c, flags)
		}
	}
	return nil
}

// HasEmbedded reports whether m carries an embedded PDG for f.
func HasEmbedded(m *ir.Module, f *ir.Function) bool {
	return m.MD.Has(mdKeyPrefix + f.Nam)
}

// Reload reconstructs f's PDG from embedded metadata. IDs must match the
// current module numbering (tools re-assign IDs only before embedding).
func Reload(m *ir.Module, f *ir.Function) (*Graph, error) {
	byID := map[int]*ir.Instr{}
	f.Instrs(func(in *ir.Instr) bool {
		byID[in.ID] = in
		return true
	})
	return decodeEmbedded(m.MD.Get(mdKeyPrefix+f.Nam), f, byID)
}

// Extract decodes every PDG embedded by Embed/noelle-meta-pdg-embed into
// graphs keyed by function. Unlike Reload it does not require AssignIDs to
// have run since parsing: embedded IDs follow the module's syntactic order
// (that is what AssignIDs produces), so Extract derives the same numbering
// on the fly without mutating the module. This is the read half of the
// paper's embed round trip — noelle-load consumes it through the manager
// so a module that carries noelle.pdg.* metadata never pays a cold alias
// solve. A decode error on any function fails the whole extraction; the
// caller degrades to rebuilding, never to a wrong graph.
func Extract(m *ir.Module) (map[*ir.Function]*Graph, error) {
	any := false
	for _, f := range m.Functions {
		if HasEmbedded(m, f) {
			any = true
			break
		}
	}
	if !any {
		return nil, nil
	}
	// Syntactic numbering, identical to Module.AssignIDs.
	next := 0
	byID := map[*ir.Function]map[int]*ir.Instr{}
	for _, f := range m.Functions {
		ids := map[int]*ir.Instr{}
		f.Instrs(func(in *ir.Instr) bool {
			ids[next] = in
			next++
			return true
		})
		byID[f] = ids
	}
	out := map[*ir.Function]*Graph{}
	for _, f := range m.Functions {
		if f.IsDeclaration() || !HasEmbedded(m, f) {
			continue
		}
		g, err := decodeEmbedded(m.MD.Get(mdKeyPrefix+f.Nam), f, byID[f])
		if err != nil {
			return nil, fmt.Errorf("pdg: embedded graph of @%s: %w", f.Nam, err)
		}
		out[f] = g
	}
	return out, nil
}

// decodeEmbedded parses one function's embedded edge list against the
// given ID→instruction mapping.
func decodeEmbedded(data string, f *ir.Function, byID map[int]*ir.Instr) (*Graph, error) {
	var instrs []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		instrs = append(instrs, in)
		return true
	})
	var edges []Edge
	if data != "" {
		parts := strings.Split(data, ";")
		edges = make([]Edge, len(parts))
		for k, part := range parts {
			arrow := strings.IndexByte(part, '>')
			colon := strings.IndexByte(part, ':')
			if arrow < 0 || colon < arrow {
				return nil, fmt.Errorf("pdg: malformed edge %q", part)
			}
			fromID, err := strconv.Atoi(part[:arrow])
			if err != nil {
				return nil, fmt.Errorf("pdg: bad from id in %q", part)
			}
			toID, err := strconv.Atoi(part[arrow+1 : colon])
			if err != nil {
				return nil, fmt.Errorf("pdg: bad to id in %q", part)
			}
			e := &edges[k]
			e.From, e.To = byID[fromID], byID[toID]
			if e.From == nil || e.To == nil {
				return nil, fmt.Errorf("pdg: edge %q references unknown instruction", part)
			}
			if err := DecodeEdgeFlags(e, part[colon+1:]); err != nil {
				return nil, err
			}
		}
	}
	return NewGraph(instrs, edges, nil, nil), nil
}

// Clean removes all embedded NOELLE metadata from the module (profiles and
// PDGs), implementing noelle-meta-clean.
func Clean(m *ir.Module) {
	for k := range m.MD {
		if strings.HasPrefix(k, "noelle.") {
			delete(m.MD, k)
		}
	}
	for _, f := range m.Functions {
		cleanMD(f.MD)
		for _, b := range f.Blocks {
			cleanMD(b.MD)
			for _, in := range b.Instrs {
				cleanMD(in.MD)
			}
		}
	}
	for _, g := range m.Globals {
		cleanMD(g.MD)
	}
}

func cleanMD(md ir.Metadata) {
	for k := range md {
		if strings.HasPrefix(k, "noelle.") {
			delete(md, k)
		}
	}
}
