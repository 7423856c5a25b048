package dswp_test

import (
	"fmt"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/profiler"
	"noelle/internal/tools/dswp"
	"noelle/internal/verify"
)

// run is one execution's observables.
type run struct {
	exit        int64
	err         string
	output      string
	fingerprint uint64
	steps       int64
	cycles      int64
}

func execute(m *ir.Module, configure func(*interp.Interp)) run {
	it := interp.New(m)
	if configure != nil {
		configure(it)
	}
	exit, err := it.Run()
	r := run{exit: exit, output: it.Output.String(), fingerprint: it.MemoryFingerprint(), steps: it.Steps, cycles: it.Cycles}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// lowered runs m's lowering under every mode the contract covers — -seq and
// parallel, walker and compiled, the queue capacity baked in, 1 and 100000
// — and requires one set of observables from all of them. It returns that
// set.
func lowered(t *testing.T, m *ir.Module) run {
	t.Helper()
	var first *run
	for _, seq := range []bool{true, false} {
		for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
			for _, qcap := range []int{0, 1, 100000} {
				r := execute(m, func(it *interp.Interp) {
					it.SeqDispatch, it.Eng, it.QueueCap, it.DispatchWorkers = seq, eng, qcap, 4
				})
				if first == nil {
					first = &r
				} else if r != *first {
					t.Errorf("seq=%v engine=%s queue-cap=%d diverged:\n got %+v\nwant %+v", seq, eng, qcap, r, *first)
				}
			}
		}
	}
	return *first
}

// chunkedSrc is a pipeline of n iterations with a value (x), a
// cross-stage store->load (c[i]) behind a token, and live-outs.
func chunkedSrc(n int) string {
	return fmt.Sprintf(`
int b[%[2]d];
int c[%[2]d];
int d[%[2]d];
int main() {
  int i;
  for (i = 0; i < %[1]d; i = i + 1) { b[i] = i * 7 + 3; }
  int acc = 5;
  for (i = 0; i < %[1]d; i = i + 1) {
    int x = b[i] * 3 + i;
    x = x * x + 11;
    x = x * x + 12;
    x = x * x + 13;
    c[i] = x;
    acc = (acc + c[i]) %% 9973;
    d[i] = acc + x;
  }
  print_i64(acc);
  return (acc + d[%[3]d]) %% 251;
}`, n, max(n, 1), max(n-1, 0))
}

// TestLowerChunkBoundaries walks the trip count across the chunk
// boundaries: no iteration, one, a chunk less one, exactly one chunk, one
// more, several chunks and a tail. Original, -seq and parallel, both
// engines, every queue capacity: same output, exit code and memory. At 4
// cores the store->load falls between the two middle stages of a 4-stage
// pipeline, so the comm tier checks a token link that does not start at
// stage 0.
func TestLowerChunkBoundaries(t *testing.T) {
	k := dswp.Chunk
	for _, cores := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 3*k + 7} {
			t.Run(fmt.Sprintf("cores%d_n%d", cores, n), func(t *testing.T) {
				m := compile(t, chunkedSrc(n))
				want := execute(ir.CloneModule(m), nil)
				if want.err != "" {
					t.Fatalf("original: %s", want.err)
				}
				res := runDSWP(t, newN(t, m, cores), true)
				if res.Lowered() == 0 {
					t.Fatalf("nothing lowered: %v", notLowered(res))
				}
				if err := verify.Module(m, verify.TierComm).Err(); err != nil {
					t.Fatalf("lowering is not comm-clean: %v", err)
				}
				if cores == 4 && (len(pipelines(t, m)[0].Tasks) != 4 || queues(t, m, true) == 0) {
					t.Fatalf("want a 4-stage pipeline with a token link:\n%s", ir.Print(m))
				}
				got := lowered(t, m)
				if got.err != "" || got.output != want.output || got.exit != want.exit || got.fingerprint != want.fingerprint {
					t.Errorf("lowered run differs from the original:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestLowerTrapsAgree: a remainder by zero in the consuming stage in the
// middle of a chunk, and in the producing stage with values staged and not
// yet pushed. The original, -seq and parallel, walker and compiled all end
// in that trap, after the same output.
func TestLowerTrapsAgree(t *testing.T) {
	at := dswp.Chunk + 50
	for name, body := range map[string]string{
		"consumer": `
    int x = b[i] * 3 + i;
    x = x * x + 11;
    x = x * x + 12;
    x = x * x + 13;
    acc = (acc * 3 + x) % (TRAP - i);`,
		"producer": `
    int x = (b[i] * 3 + i) % (TRAP - i);
    x = x * x + 11;
    x = x * x + 12;
    x = x * x + 13;
    acc = (acc * 3 + x) % 9973;`,
	} {
		t.Run(name, func(t *testing.T) {
			src := strings.ReplaceAll(`
int b[400];
int main() {
  int i;
  for (i = 0; i < 400; i = i + 1) { b[i] = i * 7 + 3; }
  print_i64(77);
  int acc = 1;
  for (i = 0; i < 400; i = i + 1) {`+body+`
  }
  print_i64(acc);
  return acc % 251;
}`, "TRAP", fmt.Sprint(at))
			m := compile(t, src)
			want := execute(ir.CloneModule(m), nil)
			if !strings.HasSuffix(want.err, "integer remainder by zero") || want.output != "77\n" {
				t.Fatalf("original: output %q, err %q; want the trap after 77", want.output, want.err)
			}
			res := runDSWP(t, newN(t, m, 2), true)
			if res.Lowered() != 2 {
				t.Fatalf("lowered %d loops, want both: %v", res.Lowered(), notLowered(res))
			}
			for _, seq := range []bool{true, false} {
				for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
					got := execute(m, func(it *interp.Interp) { it.SeqDispatch, it.Eng = seq, eng })
					if !strings.HasSuffix(got.err, "integer remainder by zero") || got.output != want.output {
						t.Errorf("seq=%v engine=%s: output %q, err %q; want the original's trap after %q",
							seq, eng, got.output, got.err, want.output)
					}
				}
			}
		})
	}
}

// stageHas reports whether stage stage of a pipeline of m holds an
// instruction pred accepts.
func stageHas(m *ir.Module, stage int, pred func(*ir.Instr) bool) bool {
	found := false
	for _, l := range verify.Lowerings(m) {
		if l.Err == nil && l.Proto.Technique == verify.DSWP && stage < len(l.Tasks) {
			l.Tasks[stage].Instrs(func(in *ir.Instr) bool {
				found = found || pred(in)
				return !found
			})
		}
	}
	return found
}

// addressInto accepts the address computations over global name.
func addressInto(name string) func(*ir.Instr) bool {
	return func(in *ir.Instr) bool {
		if in.Opcode != ir.OpPtrAdd {
			return false
		}
		g, ok := in.Ops[0].(*ir.Global)
		return ok && g.Nam == name
	}
}

// TestRematerializedValuesDoNotTravel: of the four values that cross the
// cut of the bundled pipeline program, the consumer recomputes two — the
// square of a value it receives and the address of c[i], which goes from
// the producer altogether — and the other two, whose operands it does not
// have, are still sent. With K iterations per queue operation the loop of
// 65,536 iterations issues 2*ceil(65536/K) pushes and as many pops, and
// moves 2 values an iteration.
func TestRematerializedValuesDoNotTravel(t *testing.T) {
	const n = 65536
	m, err := bench.PipelineProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	want := execute(ir.CloneModule(m), nil)
	// As the benchmark's dswp_pipe compiles it: profiled, hot loops only,
	// which leaves the recurrence loop.
	prof, err := profiler.Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	prof.Embed()
	opts := core.DefaultOptions()
	opts.MinHotness, opts.Cores = 0.2, 2
	if res := runDSWP(t, core.New(m, opts), true); res.Lowered() != 1 {
		t.Fatalf("lowered %d loops, want the hot one: %v", res.Lowered(), notLowered(res))
	}
	if values := queues(t, m, false); values != 2 {
		t.Errorf("lowering creates %d value queues, want 2:\n%s", values, ir.Print(m))
	}
	if stageHas(m, 0, addressInto("c")) {
		t.Error("stage 0 still computes the address of c[i], which only stage 1 reads")
	}
	if !stageHas(m, 1, addressInto("c")) {
		t.Error("stage 1 does not recompute the address of c[i]")
	}
	if stageHas(m, 1, addressInto("b")) {
		t.Error("stage 1 reads b[i]: the chain behind the sent values was cloned, not sent")
	}

	it := interp.New(m)
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if it.Output.String() != want.output {
		t.Fatalf("output %q, want %q", it.Output.String(), want.output)
	}
	maxOps := int64(2*((n+dswp.Chunk-1)/dswp.Chunk) + 2)
	if it.QueuePushes > maxOps || it.QueuePops > maxOps || it.QueuePushes == 0 {
		t.Errorf("%d push and %d pop operations, want at most %d each", it.QueuePushes, it.QueuePops, maxOps)
	}
	if _, pushes, pops, _, _ := it.CommStats(); pushes > 2*n || pops != pushes {
		t.Errorf("%d values pushed, %d popped; want at most %d, all popped", pushes, pops, 2*n)
	}
}
