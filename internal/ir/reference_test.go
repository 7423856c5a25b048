package ir_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sort"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/ir"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// refFingerprinter is the fingerprint walk as this package shipped it
// until bodies were encoded into one buffer: every field goes to a
// hash.Hash through its own Write call. It defines the byte stream, so it
// is the oracle that keeps every fingerprint, and every store key built on
// one, bit-identical.
type refFingerprinter struct {
	mod      *ir.Module
	locals   map[*ir.Function]ir.Fingerprint
	globals  ir.Fingerprint
	haveGlob bool
}

func newRefFingerprinter(m *ir.Module) *refFingerprinter {
	return &refFingerprinter{mod: m, locals: map[*ir.Function]ir.Fingerprint{}}
}

func (p *refFingerprinter) module() ir.Fingerprint {
	fns := append([]*ir.Function(nil), p.mod.Functions...)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Nam < fns[j].Nam })
	h := sha256.New()
	refWriteStr(h, "noelle.modfp.v2")
	g := p.globalsHash()
	h.Write(g[:])
	for _, f := range fns {
		refWriteStr(h, f.Nam)
		l := p.local(f)
		h.Write(l[:])
	}
	var fp ir.Fingerprint
	h.Sum(fp[:0])
	return fp
}

func (p *refFingerprinter) local(f *ir.Function) ir.Fingerprint {
	if fp, ok := p.locals[f]; ok {
		return fp
	}
	h := sha256.New()
	if f.IsDeclaration() {
		refWriteStr(h, "decl")
		refWriteStr(h, f.Sig.String())
	} else {
		refWriteStr(h, "body")
		refWriteStr(h, f.Sig.String())
		pos := map[*ir.Instr]int{}
		bpos := map[*ir.Block]int{}
		n := 0
		for bi, b := range f.Blocks {
			bpos[b] = bi
			for _, in := range b.Instrs {
				pos[in] = n
				n++
			}
		}
		for _, b := range f.Blocks {
			refWriteInt(h, int64(len(b.Instrs)))
			for _, in := range b.Instrs {
				refWriteInt(h, int64(in.Opcode))
				refWriteStr(h, in.Ty.String())
				if in.Opcode == ir.OpAlloca {
					refWriteStr(h, in.AllocaElem.String())
					refWriteInt(h, int64(in.AllocaCount))
				}
				for _, op := range in.Ops {
					refWriteOperand(h, op, pos)
				}
				for _, tb := range in.Blocks {
					refWriteInt(h, int64(bpos[tb]))
				}
			}
		}
	}
	var fp ir.Fingerprint
	h.Sum(fp[:0])
	p.locals[f] = fp
	return fp
}

func (p *refFingerprinter) globalsHash() ir.Fingerprint {
	if p.haveGlob {
		return p.globals
	}
	gs := append([]*ir.Global(nil), p.mod.Globals...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Nam < gs[j].Nam })
	h := sha256.New()
	refWriteStr(h, "noelle.globals.v1")
	for _, g := range gs {
		refWriteStr(h, g.Nam)
		refWriteStr(h, g.Elem.String())
		refWriteInt(h, int64(len(g.Init)))
		for _, v := range g.Init {
			refWriteInt(h, v)
		}
		refWriteInt(h, int64(len(g.FInit)))
		for _, v := range g.FInit {
			refWriteInt(h, int64(math.Float64bits(v)))
		}
	}
	h.Sum(p.globals[:0])
	p.haveGlob = true
	return p.globals
}

func refWriteOperand(h hash.Hash, v ir.Value, pos map[*ir.Instr]int) {
	switch x := v.(type) {
	case *ir.Const:
		refWriteStr(h, "C")
		refWriteInt(h, int64(x.Ty.Kind))
		refWriteInt(h, x.Int)
		refWriteInt(h, int64(math.Float64bits(x.Flt)))
	case *ir.Param:
		refWriteStr(h, "P")
		refWriteInt(h, int64(x.Index))
	case *ir.Global:
		refWriteStr(h, "G")
		refWriteStr(h, x.Nam)
	case *ir.Function:
		refWriteStr(h, "F")
		refWriteStr(h, x.Nam)
	case *ir.Instr:
		refWriteStr(h, "I")
		if p, ok := pos[x]; ok {
			refWriteInt(h, int64(p))
		} else {
			refWriteInt(h, -1)
		}
	default:
		refWriteStr(h, "?")
	}
}

func refWriteInt(h hash.Hash, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	h.Write(buf[:n])
}

func refWriteStr(h hash.Hash, s string) {
	refWriteInt(h, int64(len(s)))
	h.Write([]byte(s))
}

// checkFingerprints holds m's module fingerprint to the reference's.
func checkFingerprints(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	if got, want := ir.ModuleFingerprint(m), newRefFingerprinter(m).module(); got != want {
		t.Errorf("%s: module fingerprint %s, reference %s", name, got.Short(), want.Short())
	}
}

// TestFingerprintMatchesReference: the module fingerprint of every module
// fuzz.Subjects yields (the 41 corpus programs among them) and of
// bench.WholeProgram equals the per-field writer's, before and after
// `auto -exec-plans` lowered the module: task functions, indirect
// dispatch calls and environment casts are the shapes a lowering adds.
func TestFingerprintMatchesReference(t *testing.T) {
	n, lowered := 0, 0
	check := func(name string, m *ir.Module, lower func(*core.Noelle) (auto.Result, error)) {
		n++
		checkFingerprints(t, name, m)
		opts := core.DefaultOptions()
		opts.Cores, opts.MinHotness = 2, 0.05
		res, err := lower(core.New(m, opts))
		if err != nil {
			t.Fatalf("%s: auto: %v", name, err)
		}
		lowered += res.Lowered()
		checkFingerprints(t, name+" after auto", m)
	}
	exec := tool.Options{ExecutePlans: true}
	err := fuzz.Subjects(150, func(name string, m *ir.Module) {
		prof, err := profiler.Collect(m)
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		prof.Embed()
		check(name, m, func(n *core.Noelle) (auto.Result, error) { return auto.Run(context.Background(), n, exec) })
	})
	if err != nil {
		t.Fatal(err)
	}
	// The whole program outruns the interpreter's step budget, so it has no
	// profile for auto to price with: lower every DOALL plan instead.
	whole, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	check("WholeProgram", whole, func(n *core.Noelle) (auto.Result, error) {
		return auto.RunPinned(context.Background(), n, exec, "doall")
	})
	if n < 41+1+150+1 || lowered < 500 {
		t.Errorf("only %d subjects and %d lowered loops", n, lowered)
	}
	t.Logf("%d subjects, %d loops lowered", n, lowered)
}
