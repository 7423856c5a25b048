package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Fingerprint is a deterministic content hash over a function and
// everything its analyses can observe: its own blocks, instructions and
// operands, the bodies of its (transitive) callees, and the module's
// globals (whole-module alias analysis makes every global alias-relevant).
// Two functions with equal fingerprints have equal PDGs, so persistent
// abstraction stores (internal/abscache) key records by it.
//
// The hash is structural: SSA names, metadata attachments, and assigned
// deterministic IDs do not contribute, so a fingerprint survives
// ir.CloneModule, print→parse round trips through irtext (which may
// uniquify names), and Module.AssignIDs renumbering. Any semantic edit —
// an operand, an opcode, a callee body, a global initializer — changes it.
type Fingerprint [32]byte

// String renders the fingerprint as lowercase hex.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// Short renders the first 8 bytes, for human-facing listings.
func (fp Fingerprint) Short() string { return hex.EncodeToString(fp[:8]) }

// IsZero reports whether the fingerprint is unset.
func (fp Fingerprint) IsZero() bool { return fp == Fingerprint{} }

// ParseFingerprint decodes the hex form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var fp Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, fmt.Errorf("ir: bad fingerprint %q: %w", s, err)
	}
	if len(b) != len(fp) {
		return fp, fmt.Errorf("ir: bad fingerprint length %d", len(b))
	}
	copy(fp[:], b)
	return fp, nil
}

// Fingerprinter computes function fingerprints over one module, memoizing
// the per-function local hashes and call-closure hashes so fingerprinting
// every function of a module stays linear. It must be discarded (and a
// fresh one created) after any IR mutation. It is safe for concurrent
// use, but one mutex guards the memo tables, so concurrent callers
// serialize per fingerprint; the memoization keeps each locked section
// to one body walk, which is small next to a record decode and tiny
// next to the alias solve a hit avoids.
//
// Every hashed stream is encoded into one reused buffer and hashed by one
// sha256.Sum256 call. The byte streams are part of the store's key
// format: internal/ir/reference_test.go holds them to the per-field
// writer they were first defined by.
type Fingerprinter struct {
	mod *Module

	mu       sync.Mutex
	locals   map[*Function]Fingerprint
	closures map[*Function]Fingerprint
	typeStrs map[*Type]string
	callees  map[*Function]calleeSet
	byName   map[string]*Function // the first function of each name, as FunctionByName finds it
	globals  Fingerprint
	haveGlob bool

	// buf, pos and bpos are reused by every body walk: the encoded stream,
	// and the body's instructions and blocks numbered in syntactic order.
	// seen (stamped with gen), work and names are reused by every callee
	// closure walk.
	buf   []byte
	pos   map[*Instr]int
	bpos  map[*Block]int
	seen  map[*Function]uint32
	gen   uint32
	work  []*Function
	names []string
}

// calleeSet is one function's memoized direct-call information.
type calleeSet struct {
	direct   []*Function
	indirect bool // an indirect call widens reachability to the whole module
}

// NewFingerprinter prepares a fingerprinter for m.
func NewFingerprinter(m *Module) *Fingerprinter {
	p := &Fingerprinter{
		mod:      m,
		locals:   map[*Function]Fingerprint{},
		closures: map[*Function]Fingerprint{},
		typeStrs: map[*Type]string{},
		callees:  map[*Function]calleeSet{},
		byName:   make(map[string]*Function, len(m.Functions)),
		pos:      map[*Instr]int{},
		bpos:     map[*Block]int{},
		seen:     map[*Function]uint32{},
	}
	for _, f := range m.Functions {
		if _, ok := p.byName[f.Nam]; !ok {
			p.byName[f.Nam] = f
		}
	}
	return p
}

// typeStr memoizes Type.String: type nodes are shared heavily, and the
// rendered string is the hot allocation of a fingerprint walk.
func (p *Fingerprinter) typeStr(t *Type) string {
	if s, ok := p.typeStrs[t]; ok {
		return s
	}
	s := t.String()
	p.typeStrs[t] = s
	return s
}

// Function returns the fingerprint of f.
func (p *Fingerprinter) Function(f *Function) Fingerprint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.functionLocked(f)
}

func (p *Fingerprinter) functionLocked(f *Function) Fingerprint {
	if fp, ok := p.closures[f]; ok {
		return fp
	}
	g := p.globalsLocked()
	l := p.localLocked(f)
	// Callee closure: the bodies every reachable callee contributes, in
	// name order so the hash is independent of discovery order.
	names := p.calleeNamesLocked(f)
	// Hash every callee body first: the walks reuse buf.
	for _, name := range names {
		p.localLocked(p.byName[name])
	}
	b := append(p.buf[:0], "noelle.fn.v1"...)
	b = append(b, g[:]...)
	b = append(b, l[:]...)
	for _, name := range names {
		b = appendStr(b, name)
		lh := p.localLocked(p.byName[name])
		b = append(b, lh[:]...)
	}
	p.buf = b
	fp := Fingerprint(sha256.Sum256(b))
	p.closures[f] = fp
	return fp
}

// Module returns a structural fingerprint of the whole module: the
// globals hash plus every function's closure fingerprint, folded in
// name-sorted order. Two modules with equal fingerprints have equal
// abstractions for every function, so a compile service (internal/serve)
// keys warm per-module sessions by it. Like Function, the hash survives
// CloneModule, print→parse round trips, and ID renumbering.
func (p *Fingerprinter) Module() Fingerprint {
	fns := append([]*Function(nil), p.mod.Functions...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Nam < fns[j].Nam })
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range fns {
		p.functionLocked(f)
	}
	g := p.globalsLocked()
	b := appendStr(p.buf[:0], "noelle.modfp.v1")
	b = append(b, g[:]...)
	for _, f := range fns {
		b = appendStr(b, f.Nam)
		fp := p.closures[f]
		b = append(b, fp[:]...)
	}
	p.buf = b
	return sha256.Sum256(b)
}

// ModuleFingerprint computes m's structural fingerprint with a throwaway
// fingerprinter (callers that also need per-function fingerprints should
// share one Fingerprinter instead).
func ModuleFingerprint(m *Module) Fingerprint {
	return NewFingerprinter(m).Module()
}

// calleeNamesLocked returns the sorted names of the functions reachable
// from f through direct calls, f excluded. An indirect call makes the
// result conservatively the whole module (any address-taken function may
// run). The per-function callee lists are memoized so fingerprinting a
// whole module walks each body once, not once per caller. The result is
// valid until the next call.
func (p *Fingerprinter) calleeNamesLocked(f *Function) []string {
	p.gen++
	p.seen[f] = p.gen
	work, names := append(p.work[:0], f), p.names[:0]
	visit := func(g *Function) {
		if p.seen[g] != p.gen {
			p.seen[g] = p.gen
			work = append(work, g)
			names = append(names, g.Nam)
		}
	}
	for i := 0; i < len(work); i++ {
		cs := p.calleesLocked(work[i])
		if cs.indirect {
			for _, g := range p.mod.Functions {
				visit(g)
			}
			continue
		}
		for _, callee := range cs.direct {
			visit(callee)
		}
	}
	sort.Strings(names)
	p.work, p.names = work, names
	return names
}

func (p *Fingerprinter) calleesLocked(f *Function) calleeSet {
	if cs, ok := p.callees[f]; ok {
		return cs
	}
	var cs calleeSet
	dedup := map[*Function]bool{}
	f.Instrs(func(in *Instr) bool {
		if in.Opcode != OpCall {
			return true
		}
		if callee := in.CalledFunction(); callee != nil {
			if !dedup[callee] {
				dedup[callee] = true
				cs.direct = append(cs.direct, callee)
			}
		} else {
			cs.indirect = true
			return false
		}
		return true
	})
	p.callees[f] = cs
	return cs
}

// localLocked hashes one function body structurally. Operands referring to
// instructions or blocks are encoded by syntactic position, never by name
// or assigned ID.
func (p *Fingerprinter) localLocked(f *Function) Fingerprint {
	if f == nil {
		return Fingerprint{}
	}
	if fp, ok := p.locals[f]; ok {
		return fp
	}
	var b []byte
	if f.IsDeclaration() {
		b = appendStr(p.buf[:0], "decl")
		b = appendStr(b, p.typeStr(f.Sig))
	} else {
		b = appendStr(p.buf[:0], "body")
		b = appendStr(b, p.typeStr(f.Sig))
		clear(p.pos)
		clear(p.bpos)
		n := 0
		for bi, blk := range f.Blocks {
			p.bpos[blk] = bi
			for _, in := range blk.Instrs {
				p.pos[in] = n
				n++
			}
		}
		for _, blk := range f.Blocks {
			b = binary.AppendVarint(b, int64(len(blk.Instrs)))
			for _, in := range blk.Instrs {
				b = binary.AppendVarint(b, int64(in.Opcode))
				b = appendStr(b, p.typeStr(in.Ty))
				if in.Opcode == OpAlloca {
					b = appendStr(b, p.typeStr(in.AllocaElem))
					b = binary.AppendVarint(b, int64(in.AllocaCount))
				}
				for _, op := range in.Ops {
					b = p.appendOperand(b, op)
				}
				for _, tb := range in.Blocks {
					b = binary.AppendVarint(b, int64(p.bpos[tb]))
				}
			}
		}
	}
	p.buf = b
	fp := Fingerprint(sha256.Sum256(b))
	p.locals[f] = fp
	return fp
}

// globalsLocked hashes every global's name, storage type and initializer
// (sorted by name). Whole-module points-to facts can depend on any global,
// so every function fingerprint includes this hash.
func (p *Fingerprinter) globalsLocked() Fingerprint {
	if p.haveGlob {
		return p.globals
	}
	gs := append([]*Global(nil), p.mod.Globals...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Nam < gs[j].Nam })
	b := appendStr(p.buf[:0], "noelle.globals.v1")
	for _, g := range gs {
		b = appendStr(b, g.Nam)
		b = appendStr(b, p.typeStr(g.Elem))
		b = binary.AppendVarint(b, int64(len(g.Init)))
		for _, v := range g.Init {
			b = binary.AppendVarint(b, v)
		}
		b = binary.AppendVarint(b, int64(len(g.FInit)))
		for _, v := range g.FInit {
			b = binary.AppendVarint(b, int64(math.Float64bits(v)))
		}
	}
	p.buf = b
	p.globals = sha256.Sum256(b)
	p.haveGlob = true
	return p.globals
}

// appendOperand encodes one operand of the body being walked.
func (p *Fingerprinter) appendOperand(b []byte, v Value) []byte {
	switch x := v.(type) {
	case *Const:
		b = appendStr(b, "C")
		b = binary.AppendVarint(b, int64(x.Ty.Kind))
		b = binary.AppendVarint(b, x.Int)
		return binary.AppendVarint(b, int64(math.Float64bits(x.Flt)))
	case *Param:
		b = appendStr(b, "P")
		return binary.AppendVarint(b, int64(x.Index))
	case *Global:
		b = appendStr(b, "G")
		return appendStr(b, x.Nam)
	case *Function:
		b = appendStr(b, "F")
		return appendStr(b, x.Nam)
	case *Instr:
		b = appendStr(b, "I")
		if n, ok := p.pos[x]; ok {
			return binary.AppendVarint(b, int64(n))
		}
		return binary.AppendVarint(b, -1) // cross-function reference (malformed IR)
	default:
		return appendStr(b, "?")
	}
}

// appendStr encodes s as its varint length and its bytes.
func appendStr(b []byte, s string) []byte {
	return append(binary.AppendVarint(b, int64(len(s))), s...)
}
