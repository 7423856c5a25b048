package interp

import (
	"fmt"
	"strings"
	"testing"

	"noelle/internal/minic"
)

// Memory is the address range [0, memBytes). These tests hold both tiers
// to one rule at its edges: a load, store or bulk queue buffer outside it
// is an interp: error, from the root context and from a dispatch worker,
// the same under -seq and parallel dispatch; the last cell inside it is
// ordinary memory.

// wildAccess is one access at @g + 8*idx (@g is the first global, laid
// out at address 8). loadopstore is the load;add;store-back idiom the
// compiled tier fuses into one op.
var wildAccess = map[string]string{
	"load": `  %v = load i64, %p
  call void @print_i64(%v)`,
	"store": `  store i64 7, %p`,
	"loadopstore": `  %v = load i64, %p
  %s = add %v, 1
  store i64 %s, %p`,
	"push_n": `  %q = call i64 @noelle_queue_create(4)
  call void @noelle_queue_push_n(%q, %p, 2)`,
	"pop_n": `  %q = call i64 @noelle_queue_create(4)
  call void @noelle_queue_push(%q, 5)
  call void @noelle_queue_push(%q, 6)
  call void @noelle_queue_pop_n(%q, %p, 2)`,
}

// wildModule makes the access from @main, or from worker 1 of a
// two-worker dispatch whose worker 0 only stores to @g.
func wildModule(t *testing.T, access string, idx int64, dispatched bool) *Interp {
	t.Helper()
	body := fmt.Sprintf("  %%p = ptradd @g, %d\n%s\n", idx, wildAccess[access])
	src := `module "m"
global @g : [4 x i64] zeroinit` + commDecls
	if !dispatched {
		return mustParse(t, src+`
func @main() i64 {
entry:
`+body+`  ret 0
}`)
	}
	return mustParse(t, src+`
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %first = eq %w, 0
  condbr %first, quiet, wild
quiet:
  %g0 = ptradd @g, 0
  store i64 1, %g0
  ret void
wild:
`+body+`  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 2)
  ret 0
}`)
}

func TestWildAddressesTrap(t *testing.T) {
	const gAddr = 8
	past := int64(memBytes-gAddr) / 8 // @g + 8*past is memBytes itself
	for _, addr := range []struct {
		name string
		idx  int64
	}{
		{"negative", -2}, {"far_negative", -1 << 40}, {"past_range", past}, {"far_past_range", 1 << 40},
	} {
		for _, access := range []string{"load", "store", "loadopstore", "push_n", "pop_n"} {
			for _, dispatched := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/dispatched=%v", addr.name, access, dispatched)
				t.Run(name, func(t *testing.T) {
					a := int64(gAddr) + 8*addr.idx
					want := wildError(access, a)
					if dispatched {
						want = "interp: dispatch worker 1: " + want
					}
					m := wildModule(t, access, addr.idx, dispatched).Mod
					var errs []string
					for _, conf := range []func(*Interp){
						func(it *Interp) { it.SeqDispatch = true },
						func(it *Interp) { it.DispatchWorkers = 2 },
					} {
						r := assertTiersAgree(t, m, conf)
						errs = append(errs, r.err)
					}
					if errs[0] != want || errs[1] != want {
						t.Errorf("-seq error %q, parallel error %q; want %q", errs[0], errs[1], want)
					}
				})
			}
		}
	}
}

func wildError(access string, addr int64) string {
	switch access {
	case "push_n", "pop_n":
		return fmt.Sprintf("interp: @noelle_queue_%s: buffer %d, count 2 out of range", access, addr)
	case "store":
		return errAddress("store", addr).Error()
	}
	return errAddress("load", addr).Error()
}

// TestLastCellIsMemory: the highest cell below memBytes loads, stores and
// carries a bulk run like any other, on both tiers.
func TestLastCellIsMemory(t *testing.T) {
	last := int64(memBytes-8-8) / 8 // @g + 8*last is memBytes-8
	for _, access := range []string{"store", "loadopstore"} {
		it := wildModule(t, access, last, false)
		r := assertTiersAgree(t, it.Mod, nil)
		if r.err != "" {
			t.Errorf("%s at memBytes-8: %s", access, r.err)
		}
	}
	it := wildModule(t, "pop_n", last-1, false)
	if r := assertTiersAgree(t, it.Mod, nil); r.err != "" {
		t.Errorf("pop_n into the last two cells: %s", r.err)
	}
}

// TestOversizedGlobalRefused: a global too large for memory, or whose
// size wraps (8 * 2e18 bytes reads as a negative int), is refused when
// the image is laid out — not placed on top of its neighbours — and
// every run fails naming it before its first instruction, on both tiers.
// minic refuses the sizes whose bytes int64 does not hold, so the module
// is written as IR.
func TestOversizedGlobalRefused(t *testing.T) {
	for _, size := range []string{"1000000000000", "2000000000000000000", "2305843009213693953"} {
		m := parseModule(t, `module "big"
global @a : [`+size+` x i64] zeroinit
global @b : i64 zeroinit
declare @print_i64 : fn(i64) void
func @main() i64 {
entry:
  store i64 5, @b
  %v = load i64, @b
  call void @print_i64(%v)
  ret 0
}`)
		for _, eng := range []Engine{EngineWalker, EngineCompiled} {
			it := New(m)
			it.Eng = eng
			_, err := it.Run()
			want := "interp: global @a of type [" + size + " x i64] does not fit in memory"
			if err == nil || !strings.Contains(err.Error(), want) || it.Steps != 0 || it.Output.Len() != 0 {
				t.Errorf("a[%s] on %s: error %v after %d steps, output %q; want %q before any step", size, eng, err, it.Steps, it.Output.String(), want)
			}
		}
	}
}

// TestOversizedAllocaTraps: a local array larger than a stack, or whose
// byte size wraps (8 * 2305843009213693953 reads as 8), traps when its
// alloca executes — not sized so that the next local overlaps it — and so
// does one that fits a stack but not what the frames below it left, with
// one error and the same counters and output on both tiers. A function
// holding one that never runs costs its program nothing.
func TestOversizedAllocaTraps(t *testing.T) {
	overflow := func(size string) string {
		return "interp: @f: alloca %a of " + size + " x i64 overflows its stack"
	}
	m, err := minic.Compile("big", "int f() { int a[1000000000000]; int b[4]; b[0] = 5; a[1] = 7; return b[0]; }\n"+
		"int main() { print_i64(1); print_i64(f()); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if r := assertTiersAgree(t, m, nil); r.err != overflow("1000000000000") || r.output != "1\n" {
		t.Errorf("a[1000000000000]: error %q, output %q; want %q after printing 1", r.err, r.output, overflow("1000000000000"))
	}
	for _, size := range []string{"2000000000000000000", "2305843009213693953"} {
		m := parseModule(t, `module "big"
declare @print_i64 : fn(i64) void
func @f() i64 {
entry:
  %a = alloca i64, `+size+`
  %b = alloca i64, 4
  store i64 5, %b
  %p = ptradd %a, 1
  store i64 7, %p
  %v = load i64, %b
  ret %v
}
func @main() i64 {
entry:
  call void @print_i64(1)
  %v = call i64 @f()
  call void @print_i64(%v)
  ret 0
}`)
		if r := assertTiersAgree(t, m, nil); r.err != overflow(size) || r.output != "1\n" {
			t.Errorf("a[%s]: error %q, output %q; want %q after printing 1", size, r.err, r.output, overflow(size))
		}
	}
	deep := fmt.Sprint(rootStackBytes / 8 / 6)
	m, err = minic.Compile("deep", "int f(int n) { int a["+deep+"]; a[0] = n; if (n == 0) { return 0; } return f(n - 1) + a[0]; }\n"+
		"int main() { print_i64(f(3)); print_i64(f(100)); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if r := assertTiersAgree(t, m, nil); r.err != overflow(deep) || r.output != "6\n" {
		t.Errorf("recursion past the stack: error %q, output %q; want %q after printing 6", r.err, r.output, overflow(deep))
	}
	m, err = minic.Compile("idle", "int f() { int a[1000000000000]; a[1] = 7; return a[1]; }\n"+
		"int main() { print_i64(5); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if r := assertTiersAgree(t, m, nil); r.err != "" || r.output != "5\n" {
		t.Errorf("uncalled oversized alloca: error %q, output %q; want none, \"5\\n\"", r.err, r.output)
	}
}

// TestCalleeAllocasPop: a callee's allocas give their memory back when it
// returns, so calling one that allocas 800 KB 30,000 times, 24 GB in
// all, needs 800 KB of stack, and the program prints its sum on both
// tiers. A bump allocator that never reuses the space stops with a store
// outside memory after about 21,000 calls.
func TestCalleeAllocasPop(t *testing.T) {
	m, err := minic.Compile("pop", "int f(int x) { int a[100000]; a[x % 100000] = x; return a[x % 100000]; }\n"+
		"int main() { int i; int s = 0; for (i = 0; i < 30000; i = i + 1) { s = s + f(i); } print_i64(s); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if r := assertTiersAgree(t, m, nil); r.err != "" || r.output != "449985000\n" {
		t.Errorf("error %q, output %q; want the sum 449985000", r.err, r.output)
	}
}
