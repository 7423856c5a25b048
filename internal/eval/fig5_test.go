package eval_test

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/eval"
	"noelle/internal/ir"
	"noelle/internal/machine"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

var fig5Techniques = []string{"doall", "helix", "dswp"}

// profiled compiles, profiles and embeds the named corpus program, as
// Figure5Row does, and returns it with the profile's total cycles.
func profiled(t *testing.T, name string) (*ir.Module, int64) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	prof.Embed()
	return m, prof.TotalCycles
}

// driverRun makes the run a Figure 5 cell claims to render, without going
// through eval: the auto driver held to one planner, lowering on, over a
// scratch copy of m.
func driverRun(t *testing.T, m *ir.Module, technique string, cores int) auto.Result {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Cores = cores
	opts.MinHotness = 0.01
	topts := tool.DefaultOptions()
	topts.ExecutePlans = true
	p, ok := tool.LookupPlanner(technique)
	if !ok {
		t.Fatalf("no %s planner", technique)
	}
	res, err := auto.RunWith(context.Background(), core.New(ir.CloneModule(m), opts), topts, []tool.Planner{p})
	if err != nil {
		t.Fatalf("%s %s: %v", m.Name, technique, err)
	}
	return res
}

// TestFigure5IsTheDriver: every cell is the Amdahl composition, redone
// here by hand, over the loops an independent driver run lowered — and
// over nothing else. A plan is a promise, so every profitable plan is
// lowered: canneal's do-while loop, which neither code generator covers,
// is refused by the HELIX and DSWP planners themselves ("not
// header-exiting") and contributes to neither column.
func TestFigure5IsTheDriver(t *testing.T) {
	const cores = 2
	for _, name := range []string{"swaptions", "canneal", "qsort", "mcf_r"} {
		m, total := profiled(t, name)
		b, _ := bench.ByName(name) // profiled checked the name
		row, err := eval.Figure5Row(b, cores)
		if err != nil {
			t.Fatal(err)
		}
		cells := map[string]float64{"doall": row.DOALL, "helix": row.HELIX, "dswp": row.DSWP}
		for _, tech := range fig5Techniques {
			res := driverRun(t, m, tech, cores)
			var seqs, pars []int64
			refused := 0
			for _, s := range res.Selections {
				c := s.Candidates[0] // one planner, one candidate
				switch {
				case s.Lowered:
					seqs, pars = append(seqs, c.Seq), append(pars, c.Par)
				case c.Plan != nil && c.Par < c.Seq:
					t.Errorf("%s %s @%s/%s: profitable plan not lowered", name, tech, s.Fn, s.Header)
				case strings.Contains(c.Rejection, "not header-exiting"):
					refused++
				}
			}
			if want := machine.Speedup(total, seqs, pars); cells[tech] != want {
				t.Errorf("%s %s: Figure 5 prints %v, the driver's lowered loops compose to %v", name, tech, cells[tech], want)
			}
			if cells[tech] < 1 {
				t.Errorf("%s %s: cell %v below 1 without a clamp: a counted loop has Par >= Seq", name, tech, cells[tech])
			}
			if name == "canneal" && tech != "doall" && refused == 0 {
				t.Errorf("canneal %s: expected the planner to refuse a loop that is not header-exiting", tech)
			}
		}
	}
}

// TestFigure5CountedLoopsNeverCallNested: the Amdahl composition charges
// a loop the cycles of the functions it calls, so two counted loops must
// not be nested through a call. The driver's walk (hot top-level loops,
// children only of refused parents) has never produced such a pair on the
// corpus; the day this fails, the rule belongs in auto's selectLoop.
func TestFigure5CountedLoopsNeverCallNested(t *testing.T) {
	for _, b := range bench.List() {
		m, _ := profiled(t, b.Name)
		n := core.New(m, core.DefaultOptions()) // the loops as they were before any lowering
		cg := n.CallGraph()
		for _, cores := range []int{2, 12} {
			for _, tech := range fig5Techniques {
				res := driverRun(t, m, tech, cores)
				type counted struct {
					fn      *ir.Function
					header  string
					callees map[*ir.Function]bool
				}
				var loops []counted
				for _, s := range res.Selections {
					if !s.Lowered {
						continue
					}
					f := n.Mod.FunctionByName(s.Fn)
					for _, node := range n.Forest(f).Nodes() {
						if node.LS.Header.Nam != s.Header {
							continue
						}
						var roots []*ir.Function
						node.LS.Instrs(func(in *ir.Instr) bool {
							if in.Opcode == ir.OpCall {
								roots = append(roots, cg.PT.Callees(in)...)
							}
							return true
						})
						loops = append(loops, counted{f, s.Header, cg.Reachable(roots...)})
					}
				}
				if len(loops) != res.Lowered() {
					t.Fatalf("%s %s cores %d: found %d of %d lowered loops in the original module", b.Name, tech, cores, len(loops), res.Lowered())
				}
				for i, a := range loops {
					for _, c := range loops[i+1:] {
						if a.callees[c.fn] || c.callees[a.fn] {
							t.Errorf("%s %s cores %d: counted loops @%s/%s and @%s/%s are nested through a call",
								b.Name, tech, cores, a.fn.Nam, a.header, c.fn.Nam, c.header)
						}
					}
				}
			}
		}
	}
}
