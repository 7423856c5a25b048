package interp

import (
	"testing"

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
// counted loop's compare+condbr back edge must lower to one cCmpBr, and
// an in-place array update (load; add; store to the same address) to one
// cLoadOpStore. These fusions carry the compiled tier's speedup on loop
// bodies; losing one silently costs dispatch overhead, so their presence
// is asserted, not assumed.
func TestSuperinstructionFusion(t *testing.T) {
	cf := compileSrc(t, `module "m"
global @arr : [8 x i64] zeroinit

func @hot(%n: i64) i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %next, loop ]
  %p = ptradd @arr, %i
  %v = load i64, %p
  %v2 = add %v, 3
  store i64 %v2, %p
  %next = add %i, 1
  %c = lt %next, %n
  condbr %c, loop, done
done:
  ret %n
}`, "hot")
	if n := countOps(cf, cCmpBr); n != 1 {
		t.Errorf("compare+condbr back edge compiled to %d cCmpBr ops, want 1", n)
	}
	if n := countOps(cf, cLoadOpStore); n != 1 {
		t.Errorf("load;add;store idiom compiled to %d cLoadOpStore ops, want 1", n)
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
			}
		}
	}
}

// TestFusionRespectsExtraUses: an intermediate with a second consumer
// must not fuse away (its slot value is still needed).
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
