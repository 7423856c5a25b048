package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// Fingerprint is a deterministic structural content hash. A module's
// fingerprint (Fingerprinter.Module) covers every function body and every
// global: whole-module points-to analysis lets a function's PDG depend on
// its callers, its callees and every global, so the persistent
// abstraction store (internal/abscache) keys each record by the module's
// fingerprint and the function's name, and a compile service
// (internal/serve) keys warm sessions by it.
//
// The hash is structural: SSA names, metadata attachments, and assigned
// deterministic IDs do not contribute, so a fingerprint survives
// ir.CloneModule, print→parse round trips through irtext (which may
// uniquify names), and Module.AssignIDs renumbering. Any semantic edit —
// an operand, an opcode, a function body, a global initializer — changes it.
type Fingerprint [32]byte

// String renders the fingerprint as lowercase hex.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// Short renders the first 8 bytes, for human-facing listings.
func (fp Fingerprint) Short() string { return hex.EncodeToString(fp[:8]) }

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

// Fingerprinter computes one module's fingerprint, memoizing each
// function body's local hash, the globals hash and the module fold, so
// re-fingerprinting after an edit re-hashes only what Invalidate dropped.
// Not safe for concurrent use: core.Noelle calls it under its own lock.
//
// Every hashed stream is encoded into one reused buffer and hashed by one
// sha256.Sum256 call. The byte streams are part of the store's key
// format: internal/ir/reference_test.go holds them to the per-field
// writer they were first defined by.
type Fingerprinter struct {
	mod *Module

	locals   map[*Function]Fingerprint
	typeStrs map[*Type]string
	globals  Fingerprint
	haveGlob bool
	module   Fingerprint
	haveMod  bool

	// buf, pos and bpos are reused by every body walk: the encoded stream,
	// and the body's instructions and blocks numbered in syntactic order.
	buf  []byte
	pos  map[*Instr]int
	bpos map[*Block]int
}

// NewFingerprinter prepares a fingerprinter for m.
func NewFingerprinter(m *Module) *Fingerprinter {
	return &Fingerprinter{
		mod:      m,
		locals:   map[*Function]Fingerprint{},
		typeStrs: map[*Type]string{},
		pos:      map[*Instr]int{},
		bpos:     map[*Block]int{},
	}
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

// Invalidate drops f's local hash after f's body changed, so the next
// Module re-hashes that one body and re-folds. Functions added to the
// module since are hashed on the next Module without being named here.
func (p *Fingerprinter) Invalidate(f *Function) {
	delete(p.locals, f)
	p.haveMod = false
}

// Module returns the module's structural fingerprint: the globals hash
// plus every function's local hash, folded in name-sorted order so the
// hash is independent of declaration order. Like every local hash, it
// survives CloneModule, print→parse round trips, and ID renumbering.
func (p *Fingerprinter) Module() Fingerprint {
	if p.haveMod {
		return p.module
	}
	fns := append([]*Function(nil), p.mod.Functions...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Nam < fns[j].Nam })
	// Hash every body first: the walks reuse buf.
	g := p.globalsHash()
	for _, f := range fns {
		p.local(f)
	}
	b := appendStr(p.buf[:0], "noelle.modfp.v2")
	b = append(b, g[:]...)
	for _, f := range fns {
		b = appendStr(b, f.Nam)
		l := p.locals[f]
		b = append(b, l[:]...)
	}
	p.buf = b
	p.module, p.haveMod = sha256.Sum256(b), true
	return p.module
}

// ModuleFingerprint computes m's structural fingerprint with a throwaway
// fingerprinter.
func ModuleFingerprint(m *Module) Fingerprint {
	return NewFingerprinter(m).Module()
}

// local hashes one function body structurally. Operands referring to
// instructions or blocks are encoded by syntactic position, never by name
// or assigned ID.
func (p *Fingerprinter) local(f *Function) Fingerprint {
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

// globalsHash hashes every global's name, storage type and initializer
// (sorted by name). Whole-module points-to facts can depend on any global,
// so the module fingerprint includes this hash.
func (p *Fingerprinter) globalsHash() Fingerprint {
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
