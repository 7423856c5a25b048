package loopbuilder_test

import (
	"testing"

	"noelle/internal/core"
	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/verify"
)

// mixedSrc is a single-exit counted loop whose live-ins and live-outs
// cover every cell encoding: %scale/%acc are f64 (fbits/bitsf), %flag and
// %big are i1 (zext/trunc), %base and %p are pointers (p2i/i2p), %i is a
// plain i64. The loop writes memory through %p and the code after it
// prints and stores every live-out.
const mixedSrc = `module "mixed"

global @buf : [8 x i64] zeroinit
global @res : [2 x i64] zeroinit

declare @print_i64 : fn(i64) void
declare @print_f64 : fn(f64) void

func @main() i64 {
entry:
  %scale = fmul 1.5, 2.0
  %flag = lt 1, 2
  %base = ptradd @buf, 0
  br header
header:
  %i = phi i64 [ 0, entry ], [ %i.next, body ]
  %acc = phi f64 [ 0.0, entry ], [ %acc.next, body ]
  %p = phi ptr<i64> [ %base, entry ], [ %p.next, body ]
  %big = gt %i, 2
  %c = lt %i, 6
  condbr %c, body, exit
body:
  %fi = sitofp %i
  %term = fmul %fi, %scale
  %gated = select %flag, %term, 0.0
  %acc.next = fadd %acc, %gated
  store i64 %i, %p
  %p.next = ptradd %p, 1
  %i.next = add %i, 1
  br header
exit:
  call void @print_f64(%acc)
  call void @print_i64(%i)
  store i64 77, %p
  %bigz = zext %big
  %r0 = ptradd @res, 0
  store i64 %bigz, %r0
  %whole = fptosi %acc
  %ret = add %whole, %bigz
  ret %ret
}
`

// emptySrc is a loop with no live-in and no live-out.
const emptySrc = `module "empty"

func @main() i64 {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %i.next, body ]
  %c = lt %i, 4
  condbr %c, body, exit
body:
  %i.next = add %i, 1
  br header
exit:
  ret 0
}
`

func parseLoop(t *testing.T, src string) (*ir.Module, *loops.Loop) {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(m, opts)
	nodes := n.Forest(m.FunctionByName("main")).Nodes()
	if len(nodes) != 1 {
		t.Fatalf("fixture has %d loops, want 1", len(nodes))
	}
	return m, n.Loop(nodes[0].LS)
}

type observed struct {
	exit   int64
	output string
	memory uint64
}

func observe(t *testing.T, m *ir.Module) observed {
	t.Helper()
	it := interp.New(m)
	r, err := it.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(m))
	}
	return observed{r, it.Output.String(), it.MemoryFingerprint()}
}

func instrNamed(t *testing.T, l *loops.Loop, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	l.LS.Instrs(func(in *ir.Instr) bool {
		if in.Nam == name {
			found = in
		}
		return found == nil
	})
	if found == nil {
		t.Fatalf("no loop instruction %%%s", name)
	}
	return found
}

// outlineAsOneWorker runs the whole scaffold over l: every live-in packed,
// one task holding the loop clone shaped by shape (nil for a full clone),
// every live-out published from done and reloaded after the dispatch.
func outlineAsOneWorker(m *ir.Module, l *loops.Loop, shape func(b *loopbuilder.Body)) {
	o := loopbuilder.BeginOutline(m, l.LS)
	eb := env.NewBuilder()
	for _, v := range l.LiveIn {
		eb.AddLiveIn(v)
	}
	for _, out := range l.LiveOut {
		eb.AddLiveOut(out)
	}
	o.PackEnv(eb, 0, "one.env")

	task := o.NewTask("one.task")
	b := loopbuilder.NewBody(task, l.LS)
	if shape == nil {
		b.Clone(nil)
	} else {
		shape(b)
	}
	b.Wire()
	b.Bld.SetInsertionBlock(b.Done)
	for _, out := range l.LiveOut {
		b.Publish(o.Env.SlotOf(out), b.Instr(out))
	}
	b.Bld.CreateRet(nil)

	o.Dispatch(task.Fn, ir.ConstInt(1), &verify.Protocol{Technique: verify.DOALL})
	finals := map[*ir.Instr]ir.Value{}
	for _, out := range l.LiveOut {
		finals[out] = o.Reload(o.Env.SlotOf(out).Index, out.Ty)
	}
	o.Finish(finals)
}

func TestOutlineRoundTripsEveryCellEncoding(t *testing.T) {
	m, l := parseLoop(t, mixedSrc)
	if err := loopbuilder.Outlinable(l, true); err != nil {
		t.Fatalf("fixture is not outlinable: %v", err)
	}
	ins, outs := map[ir.TypeKind]bool{}, map[ir.TypeKind]bool{}
	for _, v := range l.LiveIn {
		ins[v.Type().Kind] = true
	}
	for _, v := range l.LiveOut {
		outs[v.Ty.Kind] = true
	}
	for _, k := range []ir.TypeKind{ir.F64Kind, ir.I1Kind, ir.PtrKind} {
		if !ins[k] || !outs[k] {
			t.Fatalf("fixture lost a live-in or live-out of kind %v (live-ins %v, live-outs %v)", k, l.LiveIn, l.LiveOut)
		}
	}
	want := observe(t, ir.CloneModule(m))

	outlineAsOneWorker(m, l, nil)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("outlined module malformed: %v\n%s", err, ir.Print(m))
	}
	if m.FunctionByName("main").BlockByName("header") != nil {
		t.Error("Finish left the loop in place")
	}
	if got := observe(t, m); got != want {
		t.Errorf("outlined run %+v, original %+v\n%s", got, want, ir.Print(m))
	}
}

func TestCloneKeepAndSubst(t *testing.T) {
	m, l := parseLoop(t, mixedSrc)
	term, accNext := instrNamed(t, l, "term"), instrNamed(t, l, "acc.next")
	scale := term.Ops[1]
	var sub ir.Value
	outlineAsOneWorker(m, l, func(b *loopbuilder.Body) {
		// Drop %term and %fi; every iteration adds scale+1 instead.
		b.Clone(func(in *ir.Instr) bool { return in != term && in.Nam != "fi" })
		sub = b.Bld.CreateBinOp(ir.OpFAdd, b.Map(scale), ir.ConstFloat(1), "sub")
		b.Subst(term, sub)
		b.Subst(accNext, sub) // a clone wins over a substitute
		if b.Instr(term) != nil || b.Map(term) != sub {
			t.Errorf("dropped %%term: clone %v, Map %v, want nil and %%sub", b.Instr(term), b.Map(term))
		}
		if b.Map(accNext) != ir.Value(b.Instr(accNext)) {
			t.Error("Map of a kept instruction did not return its clone")
		}
		if c := ir.ConstInt(7); b.Map(c) != ir.Value(c) {
			t.Error("Map of a constant is not the constant")
		}
	})
	if err := ir.Verify(m); err != nil {
		t.Fatalf("outlined module malformed: %v\n%s", err, ir.Print(m))
	}
	// 6 iterations of 1.5*2+1 = 24, plus %big (6 > 2) = 25.
	if got := observe(t, m); got.exit != 25 {
		t.Errorf("exit %d, want 25 (the substitute did not reach %%gated)\n%s", got.exit, ir.Print(m))
	}
}

func TestPackEnvAlwaysAllocatesACell(t *testing.T) {
	m, l := parseLoop(t, emptySrc)
	if len(l.LiveIn)+len(l.LiveOut) != 0 {
		t.Fatalf("fixture has live-ins %v or live-outs %v", l.LiveIn, l.LiveOut)
	}
	want := observe(t, ir.CloneModule(m))
	outlineAsOneWorker(m, l, nil)
	var alloca *ir.Instr
	m.FunctionByName("main").Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpAlloca {
			alloca = in
		}
		return true
	})
	if alloca == nil || alloca.AllocaCount != 1 {
		t.Fatalf("environment block %v, want a one-cell alloca\n%s", alloca, ir.Print(m))
	}
	if got := observe(t, m); got != want {
		t.Errorf("outlined run %+v, original %+v", got, want)
	}
}
