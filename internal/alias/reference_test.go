package alias_test

import (
	"context"
	"sort"
	"sync"
	"testing"

	"noelle/internal/alias"
	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/ir"
	"noelle/internal/pdg"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// reference is the analysis as this package shipped it until the solver
// went to a worklist and the summaries bottom-up: three round-robin fixed
// points over every instruction of the module, on map sets. It is slow
// (one pass per level of call depth) and obviously a least fixed point of
// the constraints, which is what makes it the oracle. The one change from
// the shipped code is the opaque-call rule: an indirect call without a
// resolved target reads and writes what its pointer arguments reach, does
// I/O, and taints its callers.
type reference struct {
	mod           *ir.Module
	pts, heap     map[ir.Value]refSet
	reads, writes map[*ir.Function]refSet
	io, opaque    map[*ir.Function]bool
}

type refSet map[ir.Value]bool

func (s refSet) addAll(o refSet) bool {
	changed := false
	for v := range o {
		if !s[v] {
			s[v] = true
			changed = true
		}
	}
	return changed
}

func newReference(m *ir.Module) *reference {
	r := &reference{
		mod: m, pts: map[ir.Value]refSet{}, heap: map[ir.Value]refSet{},
		reads: map[*ir.Function]refSet{}, writes: map[*ir.Function]refSet{},
		io: map[*ir.Function]bool{}, opaque: map[*ir.Function]bool{},
	}
	r.solve()
	r.summarize()
	r.summarizeEffects()
	return r
}

var refPureExterns = map[string]bool{
	"print_i64": true, "print_f64": true,
	"carat_guard": true, "os_callback": true, "clock_set": true,
}

func refPointerLike(t *ir.Type) bool {
	return t != nil && (t.Kind == ir.PtrKind || t.Kind == ir.FuncKind)
}

func setIn(m map[ir.Value]refSet, v ir.Value) refSet {
	s, ok := m[v]
	if !ok {
		s = refSet{}
		m[v] = s
	}
	return s
}

// valSet materializes singletons for direct object references.
func (r *reference) valSet(v ir.Value) refSet {
	s := setIn(r.pts, v)
	switch v.(type) {
	case *ir.Global, *ir.Function:
		s[v] = true
	}
	return s
}

func (r *reference) callees(call *ir.Instr) []*ir.Function {
	if f := call.CalledFunction(); f != nil {
		return []*ir.Function{f}
	}
	var out []*ir.Function
	for obj := range r.pts[call.Ops[0]] {
		if f, ok := obj.(*ir.Function); ok {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nam < out[j].Nam })
	return out
}

func (r *reference) solve() {
	for _, g := range r.mod.Globals {
		setIn(r.pts, g)[g] = true
	}
	for _, f := range r.mod.Functions {
		setIn(r.pts, f)[f] = true
		f.Instrs(func(in *ir.Instr) bool {
			if in.Opcode == ir.OpAlloca {
				setIn(r.pts, in)[in] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, f := range r.mod.Functions {
			f.Instrs(func(in *ir.Instr) bool {
				switch in.Opcode {
				case ir.OpPtrAdd, ir.OpP2I, ir.OpI2P:
					if setIn(r.pts, in).addAll(r.valSet(in.Ops[0])) {
						changed = true
					}
				case ir.OpPhi, ir.OpSelect:
					ops := in.Ops
					if in.Opcode == ir.OpSelect {
						ops = in.Ops[1:]
					}
					for _, op := range ops {
						if setIn(r.pts, in).addAll(r.valSet(op)) {
							changed = true
						}
					}
				case ir.OpLoad:
					for obj := range r.valSet(in.Ops[0]) {
						if setIn(r.pts, in).addAll(setIn(r.heap, obj)) {
							changed = true
						}
					}
				case ir.OpStore:
					src := r.valSet(in.Ops[0])
					for obj := range r.valSet(in.Ops[1]) {
						if setIn(r.heap, obj).addAll(src) {
							changed = true
						}
					}
				case ir.OpCall:
					if r.bindCall(in) {
						changed = true
					}
				}
				return true
			})
		}
	}
}

func (r *reference) bindCall(call *ir.Instr) bool {
	changed := false
	for _, callee := range r.callees(call) {
		if callee.IsDeclaration() {
			continue
		}
		args := call.CallArgs()
		for i, p := range callee.Params {
			if i < len(args) && refPointerLike(p.Ty) {
				if setIn(r.pts, p).addAll(r.valSet(args[i])) {
					changed = true
				}
			}
		}
		if call.HasResult() && refPointerLike(call.Ty) {
			for _, b := range callee.Blocks {
				t := b.Terminator()
				if t != nil && t.Opcode == ir.OpRet && len(t.Ops) == 1 {
					if setIn(r.pts, call).addAll(r.valSet(t.Ops[0])) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

func (r *reference) escapingAllocas() map[*ir.Instr]bool {
	esc := map[*ir.Instr]bool{}
	mark := func(s refSet) {
		for obj := range s {
			if a, ok := obj.(*ir.Instr); ok && a.Opcode == ir.OpAlloca {
				esc[a] = true
			}
		}
	}
	for _, heap := range r.heap {
		mark(heap)
	}
	for _, f := range r.mod.Functions {
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t != nil && t.Opcode == ir.OpRet && len(t.Ops) == 1 {
				mark(r.valSet(t.Ops[0]))
			}
		}
	}
	return esc
}

func (r *reference) summarize() {
	escaping := r.escapingAllocas()
	exported := func(f *ir.Function, s refSet) refSet {
		out := refSet{}
		for obj := range s {
			if a, ok := obj.(*ir.Instr); ok && a.Opcode == ir.OpAlloca &&
				a.Parent != nil && a.Parent.Parent == f && !escaping[a] {
				continue // activation-private storage
			}
			out[obj] = true
		}
		return out
	}
	for _, f := range r.mod.Functions {
		r.reads[f], r.writes[f] = refSet{}, refSet{}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range r.mod.Functions {
			rd, wr := r.reads[f], r.writes[f]
			touchesArgs := func(call *ir.Instr) {
				for _, a := range call.CallArgs() {
					if refPointerLike(a.Type()) {
						if rd.addAll(r.valSet(a)) {
							changed = true
						}
						if wr.addAll(r.valSet(a)) {
							changed = true
						}
					}
				}
			}
			f.Instrs(func(in *ir.Instr) bool {
				switch in.Opcode {
				case ir.OpLoad:
					if rd.addAll(r.valSet(in.Ops[0])) {
						changed = true
					}
				case ir.OpStore:
					if wr.addAll(r.valSet(in.Ops[1])) {
						changed = true
					}
				case ir.OpCall:
					callees := r.callees(in)
					if len(callees) == 0 {
						touchesArgs(in)
					}
					for _, callee := range callees {
						switch {
						case callee.IsDeclaration() && refPureExterns[callee.Nam]:
						case callee.IsDeclaration():
							touchesArgs(in)
						default:
							if rd.addAll(exported(callee, r.reads[callee])) {
								changed = true
							}
							if wr.addAll(exported(callee, r.writes[callee])) {
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, f := range r.mod.Functions {
		r.reads[f] = exported(f, r.reads[f])
		r.writes[f] = exported(f, r.writes[f])
	}
}

func (r *reference) summarizeEffects() {
	for _, f := range r.mod.Functions {
		if f.IsDeclaration() {
			r.io[f] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range r.mod.Functions {
			f.Instrs(func(in *ir.Instr) bool {
				if in.Opcode != ir.OpCall {
					return true
				}
				callees := r.callees(in)
				io, opaque := len(callees) == 0, len(callees) == 0
				for _, callee := range callees {
					io, opaque = io || r.io[callee], opaque || r.opaque[callee]
				}
				if io && !r.io[f] || opaque && !r.opaque[f] {
					r.io[f], r.opaque[f] = r.io[f] || io, r.opaque[f] || opaque
					changed = true
				}
				return true
			})
		}
	}
}

func sameSet(got []ir.Value, want refSet) bool {
	if len(got) != len(want) {
		return false
	}
	for _, v := range got {
		if !want[v] {
			return false
		}
	}
	return true
}

// checkAgainstReference compares every set and bit of the product's
// analysis of m with the reference's.
func checkAgainstReference(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	pt, ref := alias.NewPointsTo(m), newReference(m)
	bad := 0
	fail := func(format string, args ...any) {
		if bad++; bad <= 10 {
			t.Errorf("%s: "+format, append([]any{name}, args...)...)
		}
	}
	value := func(v ir.Value) {
		if !sameSet(pt.PointsToSet(v), ref.pts[v]) {
			fail("pts(%s) = %d objects, reference %d", v.Ident(), len(pt.PointsToSet(v)), len(ref.pts[v]))
		}
	}
	object := func(v ir.Value) {
		value(v)
		if !sameSet(pt.HeapSet(v), ref.heap[v]) {
			fail("heap(%s) = %d objects, reference %d", v.Ident(), len(pt.HeapSet(v)), len(ref.heap[v]))
		}
	}
	for _, g := range m.Globals {
		object(g)
	}
	for _, f := range m.Functions {
		object(f)
		reads, writes, io, opaque := pt.Summary(f)
		if !sameSet(reads, ref.reads[f]) || !sameSet(writes, ref.writes[f]) {
			fail("@%s reads/writes %d/%d objects, reference %d/%d", f.Nam, len(reads), len(writes), len(ref.reads[f]), len(ref.writes[f]))
		}
		if io != ref.io[f] || opaque != ref.opaque[f] || io != pt.FuncHasSideEffects(f) {
			fail("@%s io/opaque %v/%v, reference %v/%v", f.Nam, io, opaque, ref.io[f], ref.opaque[f])
		}
		for _, p := range f.Params {
			value(p)
		}
		f.Instrs(func(in *ir.Instr) bool {
			if in.Opcode == ir.OpAlloca {
				object(in)
			} else {
				value(in)
			}
			for _, op := range in.Ops {
				value(op)
			}
			if in.Opcode == ir.OpCall {
				got, want := pt.Callees(in), ref.callees(in)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = got[i] == want[i]
				}
				if !same {
					fail("@%s: callees of %s: %d, reference %d", f.Nam, in.Ident(), len(got), len(want))
				}
			}
			return true
		})
	}
	if bad > 10 {
		t.Errorf("%s: %d more differences", name, bad-10)
	}
}

// TestPointsToMatchesReference: pts, heap, reads, writes, io, opaque and
// Callees equal the round-robin reference's, per value and per function,
// on the corpus, the bundled programs and their lowerings, generated
// programs and the whole program — and on each of them again after `auto
// -exec-plans` lowered it: task functions, environment p2i round trips and
// dispatch by function pointer are the shapes a lowering adds to a module.
func TestPointsToMatchesReference(t *testing.T) {
	n, lowered := 0, 0
	check := func(name string, m *ir.Module, lower func(*core.Noelle) (auto.Result, error)) {
		n++
		checkAgainstReference(t, name, m)
		opts := core.DefaultOptions()
		opts.Cores, opts.MinHotness = 2, 0.05
		res, err := lower(core.New(m, opts))
		if err != nil {
			t.Fatalf("%s: auto: %v", name, err)
		}
		lowered += res.Lowered()
		checkAgainstReference(t, name+" after auto", m)
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
	// profile and auto cannot price its loops: every DOALL plan is lowered.
	whole, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	check("WholeProgram", whole, func(n *core.Noelle) (auto.Result, error) {
		return auto.RunPinned(context.Background(), n, exec, "doall")
	})
	if n < 41+1+2+150+1 || lowered < 500 {
		t.Errorf("only %d subjects and %d lowered loops", n, lowered)
	}
	t.Logf("%d subjects, %d loops lowered", n, lowered)
}

// TestConcurrentPDGBuildsShareOnePointsTo: the analysis is read-only after
// construction, so four builders walking every function against one
// PointsTo neither race (make tier-diff runs this under -race) nor
// disagree.
func TestConcurrentPDGBuildsShareOnePointsTo(t *testing.T) {
	m, err := bench.Synthetic(60, 48)
	if err != nil {
		t.Fatal(err)
	}
	pt := alias.NewPointsTo(m)
	b := &pdg.Builder{Mod: m, AA: alias.NewCombined(alias.TypeBasicAA{}, alias.AndersenAA{PT: pt}), PT: pt}
	edges := make([]int, 4)
	var wg sync.WaitGroup
	for w := range edges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range m.Functions {
				edges[w] += b.FunctionPDG(f).NumEdges()
			}
		}()
	}
	wg.Wait()
	for w, e := range edges {
		if e == 0 || e != edges[0] {
			t.Errorf("builder %d saw %d edges, builder 0 saw %d", w, e, edges[0])
		}
	}
}
