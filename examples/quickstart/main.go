// Quickstart: compile a small program, load the NOELLE layer, and query
// its abstractions — the PDG, the complete call graph, and the full loop
// abstraction (structure, invariants, induction variables, reductions,
// aSCCDAG).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"noelle"
)

const src = `
int data[128];
int scale = 3;

int weigh(int v) { return v * scale; }

int main() {
  int i;
  for (i = 0; i < 128; i = i + 1) { data[i] = i % 17; }
  int sum = 0;
  for (i = 0; i < 128; i = i + 1) {
    sum = sum + weigh(data[i]);
  }
  print_i64(sum);
  return sum % 256;
}
`

func main() {
	// 1. Frontend + standard pipeline (the "clang -O2" of this substrate).
	m, err := noelle.CompileC("quickstart", src)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Load the NOELLE layer. Nothing is computed yet: abstractions
	//    materialize on first request (and the manager records what you
	//    asked for).
	n := noelle.Load(m, noelle.DefaultOptions())

	// 3. The program dependence graph of main.
	mainFn := m.FunctionByName("main")
	g := n.FunctionPDG(mainFn)
	fmt.Printf("PDG(main): %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// 4. The complete call graph: weigh is invoked from main.
	cg := n.CallGraph()
	for _, callee := range cg.Callees(mainFn) {
		e := cg.EdgeBetween(mainFn, callee)
		fmt.Printf("call edge: main -> %s (must=%v, %d sites)\n", callee.Nam, e.Must, len(e.Subs))
	}

	// 5. The loop abstraction L for each top-level loop of main.
	for _, node := range n.Forest(mainFn).Roots {
		l := n.Loop(node.LS)
		giv := l.IVs.GoverningIV()
		fmt.Printf("loop %s:\n", node.LS.Header.Nam)
		if giv != nil {
			step, _ := giv.StepValue()
			fmt.Printf("  governing IV %s, step %d\n", giv.Phi.Ident(), step)
		}
		if tc, ok := l.IVs.TripCount(); ok {
			fmt.Printf("  trip count %d\n", tc)
		}
		ind, seq, red := l.SCCDAG.Counts()
		fmt.Printf("  aSCCDAG: %d independent, %d sequential, %d reducible\n", ind, seq, red)
		fmt.Printf("  invariants: %d, reductions: %d, DOALL-able: %v\n",
			l.Invariants.Count(), len(l.Reductions.Reductions), l.IsDOALL())
	}

	// 6. The demand-driven manager tracked every abstraction we touched.
	fmt.Printf("abstractions requested: %v\n", n.Requested())
}
