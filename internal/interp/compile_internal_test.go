package interp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/irtext"
)

// compileSrc compiles one function of an irtext module directly.
func compileSrc(t *testing.T, src, fn string) *cfunc {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	it := New(m)
	f := m.FunctionByName(fn)
	if f == nil {
		t.Fatalf("no @%s", fn)
	}
	cf, cerr := compileFunc(it.img, f, it.Cost, probes{})
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	return cf
}

func countOps(cf *cfunc, code copcode) int {
	n := 0
	for _, ops := range cf.blocks {
		for i := range ops {
			if ops[i].code == code {
				n++
			}
		}
	}
	return n
}

// TestSuperinstructionFusion pins the compiler's idiom recognition: a
// counted loop's compare+condbr back edge must lower to one cCmpBr, an
// in-place array update (load; add; store to the same address) to one
// cLoadOpStore, and a ptradd feeding only the adjacent load or store to
// one cPtrLoad or cPtrStore. These fusions carry the compiled tier's
// speedup on loop bodies; losing one silently costs dispatch overhead, so
// their presence is asserted, not assumed.
func TestSuperinstructionFusion(t *testing.T) {
	cf := compileSrc(t, `module "m"
global @arr : [8 x i64] zeroinit
global @out : [8 x i64] zeroinit

func @hot(%n: i64) i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %next, loop ]
  %p = ptradd @arr, %i
  %v = load i64, %p
  %v2 = add %v, 3
  store i64 %v2, %p
  %q = ptradd @arr, %i
  %w = load i64, %q
  %r = ptradd @out, %i
  store i64 %w, %r
  %next = add %i, 1
  %c = lt %next, %n
  condbr %c, loop, done
done:
  ret %n
}`, "hot")
	for _, want := range []struct {
		code copcode
		what string
	}{
		{cCmpBr, "compare+condbr back edge"},
		{cLoadOpStore, "load;add;store idiom"},
		{cPtrLoad, "ptradd feeding the adjacent load"},
		{cPtrStore, "ptradd feeding the adjacent store's address"},
	} {
		if n := countOps(cf, want.code); n != 1 {
			t.Errorf("%s compiled to %d ops of code %d, want 1", want.what, n, want.code)
		}
	}
	if n := countOps(cf, cPtrAdd); n != 1 {
		t.Errorf("%d cPtrAdd ops left, want 1 (the one the store-back reuses)", n)
	}
	// The fused instructions must still retire their full step/cycle
	// charge (walker-identical accounting).
	for _, ops := range cf.blocks {
		for i := range ops {
			op := &ops[i]
			switch op.code {
			case cCmpBr:
				if op.steps != 2 || len(op.subCost) != 2 {
					t.Errorf("cCmpBr retires %d steps (%d sub-costs), want 2", op.steps, len(op.subCost))
				}
			case cLoadOpStore:
				if op.steps != 3 || len(op.subCost) != 3 {
					t.Errorf("cLoadOpStore retires %d steps (%d sub-costs), want 3", op.steps, len(op.subCost))
				}
			case cPtrLoad, cPtrStore:
				if op.steps != 2 || len(op.subCost) != 2 || op.k != 8 {
					t.Errorf("op %d retires %d steps (%d sub-costs) over %d-byte elements, want 2 over 8",
						op.code, op.steps, len(op.subCost), op.k)
				}
			}
		}
	}
}

// TestFusionRespectsExtraUses: an intermediate with a second consumer
// must not fuse away (its slot value is still needed), and a ptradd fuses
// only as the address of the load or store right after it.
func TestFusionRespectsExtraUses(t *testing.T) {
	cf := compileSrc(t, `module "m"
func @f(%n: i64) i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %next, loop ]
  %next = add %i, 1
  %c = lt %next, %n
  %keep = zext %c
  condbr %c, loop, done
done:
  ret %keep
}`, "f")
	if n := countOps(cf, cCmpBr); n != 0 {
		t.Errorf("compare with a second use fused into %d cCmpBr ops, want 0", n)
	}

	for _, tc := range []struct{ name, body string }{
		{"second use", `
  %p = ptradd %base, %i
  %v = load i64, %p
  %k = p2i %p
  %r = add %v, %k`},
		{"stored value", `
  %p = ptradd %base, %i
  store ptr<i64> %p, %slot
  %r = add %i, 1`},
		{"not adjacent", `
  %p = ptradd %base, %i
  %r = add %i, 1
  store i64 %r, %p`},
	} {
		cf := compileSrc(t, `module "m"
func @f(%base: ptr<i64>, %slot: ptr<ptr<i64>>, %i: i64) i64 {
entry:`+tc.body+`
  ret %r
}`, "f")
		if n := countOps(cf, cPtrLoad) + countOps(cf, cPtrStore); n != 0 {
			t.Errorf("%s: ptradd fused into %d ops, want 0", tc.name, n)
		}
		if n := countOps(cf, cPtrAdd); n != 1 {
			t.Errorf("%s: %d cPtrAdd ops, want 1", tc.name, n)
		}
	}
}

// TestKnownOperandsFold: an instruction whose operands are all known at
// compile time is evaluated into the constant pool, and its step and
// cycles ride on the next op; a division by zero stays an op, so it traps
// where the walker does.
func TestKnownOperandsFold(t *testing.T) {
	cf := compileSrc(t, `module "m"
global @g : [8 x i64] zeroinit
func @f(%i: i64) i64 {
entry:
  %base = ptradd @g, 0
  %q = ptradd %base, %i
  %v = load i64, %q
  %z = sub 4, 4
  %r = div %v, %z
  %bad = div 7, 0
  ret %bad
}`, "f")
	ops := cf.blocks[0]
	if len(ops) != 4 || ops[0].code != cPtrLoad || ops[1].code != cDiv || ops[2].code != cDiv || ops[3].code != cRet {
		t.Fatalf("compiled to %d ops, want cPtrLoad, cDiv, cDiv, cRet", len(ops))
	}
	for i, want := range []int64{3, 2, 1, 1} {
		if ops[i].steps != want {
			t.Errorf("op %d retires %d steps, want %d", i, ops[i].steps, want)
		}
	}
	if got := cf.consts[ops[1].b-cf.pool]; got != 0 {
		t.Errorf("the folded divisor is %d, want 0", got)
	}
}

// TestCompiledCacheInvalidation: a context running a different cost
// model must not reuse a body compiled under the old model (per-op
// cycles are baked in at compile time).
func TestCompiledCacheInvalidation(t *testing.T) {
	m, err := irtext.Parse(`module "m"
func @main() i64 {
entry:
  %a = mul 3, 4
  ret %a
}`)
	if err != nil {
		t.Fatal(err)
	}
	it := New(m)
	f := m.FunctionByName("main")
	cf1 := plainBody(it.img.compiled(f, it.Cost, probes{}))
	if cf1 == nil {
		t.Fatal("main did not compile")
	}
	hot := it.Cost
	hot.IntMul += 100
	cf2 := plainBody(it.img.compiled(f, hot, probes{}))
	if cf2 == nil {
		t.Fatal("main did not recompile under the new model")
	}
	if cf1 == cf2 {
		t.Error("cost-model change did not invalidate the compiled body")
	}
}

// TestExternDispatchAllocFree pins the indexed extern registry's hot
// path: calling a registered declaration resolves through the cached
// declaration slot — one atomic load — and the dispatch itself performs
// zero allocations. A regression (say, reintroducing a per-call name
// lookup that boxes, or a lock that escapes) shows up as a fractional
// alloc count.
func TestExternDispatchAllocFree(t *testing.T) {
	m, err := irtext.Parse(`module "m"
declare @probe : fn(i64) i64
func @main() i64 {
entry:
  ret 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	it := New(m)
	it.RegisterExternArity("probe", 1, func(it *Interp, args []uint64) (uint64, error) {
		return args[0] + 1, nil
	})
	probe := m.FunctionByName("probe")
	args := []uint64{41}
	if r, err := it.Call(probe, args); err != nil || r != 42 {
		t.Fatalf("probe(41) = %d, %v; want 42", r, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := it.Call(probe, args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("extern dispatch allocates %.2f objects per call, want 0", allocs)
	}
}

// TestExternReregistrationReresolves: replacing a registered extern must
// be observed by subsequent calls even after the declaration slot was
// cached by earlier dispatches.
func TestExternReregistrationReresolves(t *testing.T) {
	m, err := irtext.Parse(`module "m"
declare @probe : fn() i64
func @main() i64 {
entry:
  ret 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	it := New(m)
	it.RegisterExtern("probe", func(it *Interp, args []uint64) (uint64, error) { return 1, nil })
	probe := m.FunctionByName("probe")
	if r, _ := it.Call(probe, nil); r != 1 {
		t.Fatalf("first registration returned %d, want 1", r)
	}
	it.RegisterExtern("probe", func(it *Interp, args []uint64) (uint64, error) { return 2, nil })
	if r, _ := it.Call(probe, nil); r != 2 {
		t.Errorf("replacement not observed: got %d, want 2", r)
	}
}

// plainBody drops image.compiled's error: nil is the rejection these
// tests look for.
func plainBody(cf *cfunc, _ error) *cfunc { return cf }

// allocSrc is a module whose @f runs a loop of k copies of one body: a
// folded constant, a ptradd feeding its load, a load;add;store-back, a
// call, a select and a queue push, so every table compileFunc fills grows
// with k.
func allocSrc(k int) string {
	var b strings.Builder
	b.WriteString(`module "m"
global @a : [64 x i64] zeroinit
declare @noelle_queue_push : fn(i64, i64) void
func @g(%x: i64, %y: i64) i64 {
entry:
  %s = add %x, %y
  ret %s
}
func @f(%n: i64, %q: i64) i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %next, loop ]
  %acc = phi i64 [ 0, entry ], [ %acc` + strconv.Itoa(k-1) + `, loop ]
`)
	prev := "%acc"
	for j := range k {
		fmt.Fprintf(&b, `  %%k%[1]d = add 3, %[1]d
  %%p%[1]d = ptradd @a, %%i
  %%v%[1]d = load i64, %%p%[1]d
  %%w%[1]d = add %%v%[1]d, %%k%[1]d
  store i64 %%w%[1]d, %%p%[1]d
  %%c%[1]d = call i64 @g(%%w%[1]d, %[2]s)
  %%t%[1]d = lt %%c%[1]d, %%n
  %%acc%[1]d = select %%t%[1]d, %%c%[1]d, %[2]s
  call void @noelle_queue_push(%%q, %%acc%[1]d)
`, j, prev)
		prev = fmt.Sprintf("%%acc%d", j)
	}
	b.WriteString(`  %next = add %i, 1
  %c = lt %next, %n
  condbr %c, loop, done
done:
  ret %acc
}`)
	return b.String()
}

// TestCompileAllocsConstant: compiling a function allocates a handful of
// objects — the body and one backing array per table — however many
// instructions it has. The compiler this replaced allocated about one per
// instruction; a regression to per-op or per-edge allocation fails here
// instead of drifting in BenchmarkCompileWhole.
func TestCompileAllocsConstant(t *testing.T) {
	const maxAllocs = 10
	var allocs []float64
	for _, k := range []int{2, 40, 200} {
		m, err := irtext.Parse(allocSrc(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		it := New(m)
		f := m.FunctionByName("f")
		n := testing.AllocsPerRun(50, func() {
			if _, err := compileFunc(it.img, f, it.Cost, probes{}); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxAllocs {
			t.Errorf("compiling %d instructions allocates %.1f objects, want at most %d", f.NumInstrs(), n, maxAllocs)
		}
		allocs = append(allocs, n)
	}
	if allocs[2] > allocs[0]+0.5 {
		t.Errorf("allocations grow with the function: %v for 2, 40 and 200 loop bodies", allocs)
	}
}

// TestNewAllocs bounds what New allocates: the default externs are
// published in one table, and the image's maps come presized. Each
// registration used to copy the table and rebuild its index, about 100 of
// the 135 objects New allocated for the whole program.
func TestNewAllocs(t *testing.T) {
	const maxAllocs = 32
	m, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { New(m) }); n > maxAllocs {
		t.Errorf("New allocates %.0f objects for %d functions and %d globals, want at most %d",
			n, len(m.Functions), len(m.Globals), maxAllocs)
	}
}
