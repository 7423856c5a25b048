package alias

import (
	"math/bits"
	"sort"

	"noelle/internal/graph"
	"noelle/internal/ir"
)

// An object is an abstract memory location: a global, a function (for
// function pointers), or an alloca instruction. Objects are numbered once,
// in module order (globals, functions, then every function's allocas), and
// an objSet is a bitset over those numbers: union, intersection test and
// the private-alloca filter are word operations, and iteration order is
// the numbering. A set never loses a member and grows only to hold one,
// so the empty set is the one of length zero (nil included).
type objSet []uint64

func (s *objSet) add(id int) bool {
	w, bit := id>>6, uint64(1)<<(id&63)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	if (*s)[w]&bit != 0 {
		return false
	}
	(*s)[w] |= bit
	return true
}

// addAll adds the members of o that are not in except and reports whether
// s grew.
func (s *objSet) addAll(o, except objSet) bool {
	changed := false
	for i, w := range o {
		if i < len(except) {
			w &^= except[i]
		}
		if w == 0 {
			continue
		}
		if i >= len(*s) {
			*s = append(*s, make([]uint64, i+1-len(*s))...)
		}
		if w&^(*s)[i] != 0 {
			(*s)[i] |= w
			changed = true
		}
	}
	return changed
}

func (s objSet) intersects(o objSet) bool {
	for i := range min(len(s), len(o)) {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// each visits the members that are not in except, in numbering order.
func (s objSet) each(except objSet, fn func(id int)) {
	for i, w := range s {
		if i < len(except) {
			w &^= except[i]
		}
		for ; w != 0; w &= w - 1 {
			fn(i<<6 + bits.TrailingZeros64(w))
		}
	}
}

// PointsTo is a whole-module, flow-insensitive, inclusion-based
// (Andersen-style) points-to analysis with interprocedural argument and
// return binding, including through indirect calls discovered during the
// fixed point, plus per-function mod/ref summaries. It is the stand-in for
// the SVF and SCAF analyses that power NOELLE's PDG in the paper.
//
// NewPointsTo is three passes, each visiting every instruction once:
// number the objects, solve the inclusion constraints on a worklist, and
// summarize the functions bottom-up over the call graph's SCCs. Nothing
// is written after construction: function PDGs are built concurrently
// against one PointsTo.
type PointsTo struct {
	Mod *ir.Module

	objs []ir.Value // object number -> global, function or alloca
	// sets holds what the cells of object i may point to at i, for every
	// object, then the points-to sets of the SSA values node knows.
	sets  []objSet
	node  map[ir.Value]int32
	funcs map[*ir.Function]*summary

	// pureExterns do not access program memory (I/O and runtime hooks).
	pureExterns map[string]bool
}

// summary is what one function may do, itself or through its callees.
type summary struct {
	self []*ir.Function // the function: what Callees answers for a direct call
	rets []ir.Value     // the operands of its value-returning rets

	// private holds the function's allocas whose address never leaves an
	// activation (never stored to memory, never returned). They cannot
	// induce cross-call conflicts in a caller, so they stay out of reads
	// and writes: this is what lets two calls to a Monte-Carlo path
	// function with a local RNG state run in parallel.
	private       objSet
	reads, writes objSet // transitive mod/ref
	// io: may perform externally visible side effects (calls a declaration).
	io bool
	// opaque: may reach an indirect call no target was resolved for, which
	// can touch any memory.
	opaque bool
}

// NewPointsTo runs the analysis over m to a fixed point.
func NewPointsTo(m *ir.Module) *PointsTo {
	pt := &PointsTo{
		Mod:   m,
		funcs: map[*ir.Function]*summary{},
		pureExterns: map[string]bool{
			"print_i64": true, "print_f64": true,
			"carat_guard": true, "os_callback": true, "clock_set": true,
		},
	}
	instrs := pt.number()
	(&solver{pt: pt}).solve(instrs)
	pt.summarize()
	return pt
}

// number assigns the object numbers, collects each function's rets, and
// returns the number of instructions; private starts out as all of the
// function's allocas.
func (pt *PointsTo) number() (instrs int) {
	object := func(v ir.Value) int {
		pt.objs = append(pt.objs, v)
		return len(pt.objs) - 1
	}
	for _, g := range pt.Mod.Globals {
		object(g)
	}
	for _, f := range pt.Mod.Functions {
		object(f)
		pt.funcs[f] = &summary{self: []*ir.Function{f}}
	}
	for _, f := range pt.Mod.Functions {
		fs := pt.funcs[f]
		f.Instrs(func(in *ir.Instr) bool {
			instrs++
			switch {
			case in.Opcode == ir.OpAlloca:
				fs.private.add(object(in))
			case in.Opcode == ir.OpRet && len(in.Ops) == 1:
				fs.rets = append(fs.rets, in.Ops[0])
			}
			return true
		})
	}
	return instrs
}

// lookup returns the objects v may point to. It never materializes an
// entry: a value the solver had no constraint for has unknown provenance.
func (pt *PointsTo) lookup(v ir.Value) objSet {
	if n, ok := pt.node[v]; ok {
		return pt.sets[n]
	}
	return nil
}

// node is the solver's state for one variable of the inclusion
// constraints (pt.sets[n] is its value): the points-to set of an SSA value,
// or the contents of an object's cells.
type node struct {
	succ   []int32 // copy edges: each successor's set includes this one
	uses   *derefs // non-nil when something goes through the value as a pointer
	queued bool
}

// derefs are the constraints through one pointer, applied once per member
// of its set; seen holds the members they have been applied to.
type derefs struct {
	loads  []int32     // nodes loaded through it: cells(member) -> load
	stores []int32     // nodes stored through it: stored -> cells(member)
	calls  []*ir.Instr // indirect calls through it: bind to member
	seen   objSet
}

// solver is the worklist state of solve, parallel to pt.sets.
type solver struct {
	pt    *PointsTo
	nodes []node
	work  []int32
}

func (s *solver) node(v ir.Value) int32 {
	n, ok := s.pt.node[v]
	if !ok {
		n = int32(len(s.nodes))
		s.pt.node[v] = n
		s.nodes = append(s.nodes, node{})
		s.pt.sets = append(s.pt.sets, nil)
	}
	return n
}

func (s *solver) derefs(ptr ir.Value) *derefs {
	n := s.node(ptr) // may grow s.nodes
	nd := &s.nodes[n]
	if nd.uses == nil {
		nd.uses = &derefs{}
	}
	return nd.uses
}

func (s *solver) push(n int32) {
	if !s.nodes[n].queued {
		s.nodes[n].queued = true
		s.work = append(s.work, n)
	}
}

// edge adds the copy edge src -> dst and brings dst up to date.
func (s *solver) edge(src, dst int32) {
	if src == dst {
		return
	}
	s.nodes[src].succ = append(s.nodes[src].succ, dst)
	if s.pt.sets[dst].addAll(s.pt.sets[src], nil) {
		s.push(dst)
	}
}

// copy makes dst point to whatever src does. Constants point nowhere.
func (s *solver) copy(src, dst ir.Value) {
	if _, isConst := src.(*ir.Const); !isConst {
		from, to := s.node(src), s.node(dst)
		s.edge(from, to)
	}
}

// bind propagates points-to facts across a call site: arguments into
// parameters and the callee's return values into the call's result.
func (s *solver) bind(call *ir.Instr, callee *ir.Function) {
	if callee.IsDeclaration() {
		return
	}
	args := call.CallArgs()
	for i, p := range callee.Params {
		if i < len(args) && pointerLike(p.Ty) {
			s.copy(args[i], p)
		}
	}
	if call.HasResult() && pointerLike(call.Ty) {
		for _, r := range s.pt.funcs[callee].rets {
			s.copy(r, call)
		}
	}
}

// solve closes the inclusion constraints: one walk turns the instructions
// into copy edges and per-pointer load/store/indirect-call constraints,
// then a worklist moves sets along the edges, adding the edges those
// constraints imply as each pointer's set grows. A pointer handed down a
// call chain costs its edges, not a pass over the module per level.
func (s *solver) solve(instrs int) {
	pt := s.pt
	hint := 2*len(pt.objs) + instrs
	pt.node = make(map[ir.Value]int32, hint)
	pt.sets = make([]objSet, len(pt.objs), hint)
	s.nodes = make([]node, len(pt.objs), hint)
	for id, obj := range pt.objs {
		n := s.node(obj) // every object's address points to it
		pt.sets[n].add(id)
		s.push(n)
	}
	for _, f := range pt.Mod.Functions {
		f.Instrs(func(in *ir.Instr) bool {
			switch in.Opcode {
			case ir.OpPtrAdd, ir.OpP2I, ir.OpI2P:
				// Field-insensitive: a derived pointer points into the
				// same objects as its base, and address casts carry
				// provenance through integers.
				s.copy(in.Ops[0], in)
			case ir.OpPhi:
				for _, op := range in.Ops {
					s.copy(op, in)
				}
			case ir.OpSelect:
				s.copy(in.Ops[1], in)
				s.copy(in.Ops[2], in)
			case ir.OpLoad:
				// Loads propagate unconditionally: integer cells may
				// carry pointer bits (p2i round trips through task
				// environments).
				u := s.derefs(in.Ops[0])
				u.loads = append(u.loads, s.node(in))
			case ir.OpStore:
				if _, isConst := in.Ops[0].(*ir.Const); !isConst {
					u := s.derefs(in.Ops[1])
					u.stores = append(u.stores, s.node(in.Ops[0]))
				}
			case ir.OpCall:
				if callee := in.CalledFunction(); callee != nil {
					s.bind(in, callee)
				} else {
					u := s.derefs(in.Ops[0])
					u.calls = append(u.calls, in)
				}
			}
			return true
		})
	}
	for len(s.work) > 0 {
		n := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.nodes[n].queued = false
		if u := s.nodes[n].uses; u != nil {
			set, seen := pt.sets[n], u.seen
			u.seen = append(objSet(nil), set...)
			set.each(seen, func(obj int) {
				for _, dst := range u.loads {
					s.edge(int32(obj), dst)
				}
				for _, src := range u.stores {
					s.edge(src, int32(obj))
				}
				if callee, ok := pt.objs[obj].(*ir.Function); ok {
					for _, call := range u.calls {
						s.bind(call, callee)
					}
				}
			})
		}
		for _, dst := range s.nodes[n].succ {
			if pt.sets[dst].addAll(pt.sets[n], nil) {
				s.push(dst)
			}
		}
	}
}

func pointerLike(t *ir.Type) bool {
	return t != nil && (t.Kind == ir.PtrKind || t.Kind == ir.FuncKind)
}

// Callees returns the possible targets of a call instruction: the static
// callee for direct calls, or every function in the callee operand's
// points-to set for indirect ones, by name. An indirect call with no
// target is opaque: it may call anything (provenance is not carried
// through integer arithmetic), and every client assumes the worst of it.
func (pt *PointsTo) Callees(call *ir.Instr) []*ir.Function {
	if f := call.CalledFunction(); f != nil {
		if fs := pt.funcs[f]; fs != nil {
			return fs.self
		}
		return []*ir.Function{f}
	}
	var out []*ir.Function
	pt.lookup(call.Ops[0]).each(nil, func(id int) {
		if f, ok := pt.objs[id].(*ir.Function); ok {
			out = append(out, f)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Nam < out[j].Nam })
	return out
}

// summarize computes the per-function transitive summaries in one
// bottom-up pass: a walk over the instructions collects what each function
// does itself and whom it calls, then the call graph's SCCs are closed
// callees first, each function importing its callees' finished sets minus
// its own private allocas. Only a multi-function SCC iterates, and only
// over its members' sets.
func (pt *PointsTo) summarize() {
	// An alloca escapes when its address is stored to memory or returned.
	var escaping objSet
	for _, cells := range pt.sets[:len(pt.objs)] {
		escaping.addAll(cells, nil)
	}
	for _, fs := range pt.funcs {
		for _, r := range fs.rets {
			escaping.addAll(pt.lookup(r), nil)
		}
	}
	cg := graph.New[*ir.Function]()
	for _, f := range pt.Mod.Functions {
		fs := pt.funcs[f]
		if f.IsDeclaration() {
			fs.io = true
			continue
		}
		allocas := fs.private
		fs.private = nil
		allocas.each(escaping, func(id int) { fs.private.add(id) })
		cg.AddNode(f)
		unknown := func(call *ir.Instr) {
			args := pt.argObjects(call)
			fs.reads.addAll(args, fs.private)
			fs.writes.addAll(args, fs.private)
		}
		f.Instrs(func(in *ir.Instr) bool {
			switch in.Opcode {
			case ir.OpLoad:
				fs.reads.addAll(pt.lookup(in.Ops[0]), fs.private)
			case ir.OpStore:
				fs.writes.addAll(pt.lookup(in.Ops[1]), fs.private)
			case ir.OpCall:
				callees := pt.Callees(in)
				if len(callees) == 0 {
					fs.opaque, fs.io = true, true
					unknown(in)
				}
				for _, callee := range callees {
					if !callee.IsDeclaration() {
						cg.AddEdge(f, callee)
						continue
					}
					fs.io = true
					if !pt.pureExterns[callee.Nam] {
						unknown(in)
					}
				}
			}
			return true
		})
	}
	for _, scc := range cg.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, f := range scc.Nodes {
				fs := pt.funcs[f]
				for _, callee := range cg.Succs(f) {
					cs := pt.funcs[callee]
					changed = fs.reads.addAll(cs.reads, fs.private) || changed
					changed = fs.writes.addAll(cs.writes, fs.private) || changed
					if cs.io && !fs.io || cs.opaque && !fs.opaque {
						fs.io, fs.opaque = fs.io || cs.io, fs.opaque || cs.opaque
						changed = true
					}
				}
			}
			changed = changed && len(scc.Nodes) > 1
		}
	}
}

// argObjects returns what a call's pointer arguments may point to: an
// unknown callee is assumed to read and write anything reachable from them.
func (pt *PointsTo) argObjects(call *ir.Instr) (objs objSet) {
	for _, a := range call.CallArgs() {
		if pointerLike(a.Type()) {
			objs.addAll(pt.lookup(a), nil)
		}
	}
	return objs
}

// FuncHasSideEffects reports whether f may perform externally visible I/O
// (transitively calls a declaration).
func (pt *PointsTo) FuncHasSideEffects(f *ir.Function) bool {
	fs := pt.funcs[f]
	return fs != nil && fs.io
}

// CallIsPure reports whether the call provably has no memory access and no
// externally visible side effect — the condition for hoisting it.
func (pt *PointsTo) CallIsPure(call *ir.Instr) bool {
	callees := pt.Callees(call)
	if len(callees) == 0 {
		return false // unknown target: assume the worst
	}
	for _, callee := range callees {
		if pt.FuncHasSideEffects(callee) || pt.FuncAccessesMemory(callee) {
			return false
		}
	}
	return true
}

// PointsToSet returns the objects v may point to, in numbering order.
func (pt *PointsTo) PointsToSet(v ir.Value) []ir.Value {
	return pt.values(pt.lookup(v))
}

func (pt *PointsTo) values(s objSet) []ir.Value {
	var out []ir.Value
	s.each(nil, func(id int) { out = append(out, pt.objs[id]) })
	return out
}

// ModRef classifies how a call may access the memory addressed by ptr.
type ModRef int

// ModRef lattice.
const (
	NoModRef ModRef = iota
	RefOnly
	ModOnly
	ModAndRef
)

// CallModRefPtr reports whether call's possible callees may read or write
// the memory ptr addresses.
func (pt *PointsTo) CallModRefPtr(call *ir.Instr, ptr ir.Value) ModRef {
	target := pt.lookup(ptr)
	callees := pt.Callees(call)
	if len(callees) == 0 {
		return ModAndRef
	}
	mayRead, mayWrite := false, false
	for _, callee := range callees {
		if callee.IsDeclaration() {
			if pt.pureExterns[callee.Nam] {
				continue
			}
			return ModAndRef
		}
		fs := pt.funcs[callee]
		switch {
		case fs.opaque:
			return ModAndRef
		case len(target) == 0:
			// ptr with empty points-to set (e.g. from an extern): be
			// conservative against functions that touch any memory.
			mayRead = mayRead || len(fs.reads) > 0
			mayWrite = mayWrite || len(fs.writes) > 0
		default:
			mayRead = mayRead || fs.reads.intersects(target)
			mayWrite = mayWrite || fs.writes.intersects(target)
		}
	}
	switch {
	case mayRead && mayWrite:
		return ModAndRef
	case mayWrite:
		return ModOnly
	case mayRead:
		return RefOnly
	default:
		return NoModRef
	}
}

// CallsAccessMemory reports whether the two calls may touch overlapping
// memory (used for call-call ordering dependences).
func (pt *PointsTo) CallsAccessMemory(a, b *ir.Instr) bool {
	ra, wa, opaqueA := pt.callAccess(a)
	rb, wb, opaqueB := pt.callAccess(b)
	// Write-write, write-read, read-write conflicts order the calls.
	return opaqueA || opaqueB || wa.intersects(wb) || wa.intersects(rb) || ra.intersects(wb)
}

// callAccess returns what a call may read and write, or that it is opaque.
// The sets are the callee's own summary when there is one defined callee:
// they are shared, not copies.
func (pt *PointsTo) callAccess(call *ir.Instr) (reads, writes objSet, opaque bool) {
	callees := pt.Callees(call)
	if len(callees) == 1 && !callees[0].IsDeclaration() {
		fs := pt.funcs[callees[0]]
		return fs.reads, fs.writes, fs.opaque
	}
	for _, callee := range callees {
		if !callee.IsDeclaration() {
			fs := pt.funcs[callee]
			reads.addAll(fs.reads, nil)
			writes.addAll(fs.writes, nil)
			opaque = opaque || fs.opaque
		} else if !pt.pureExterns[callee.Nam] {
			args := pt.argObjects(call)
			reads.addAll(args, nil)
			writes.addAll(args, nil)
		}
	}
	return reads, writes, opaque || len(callees) == 0
}

// FuncAccessesMemory reports whether f may read or write program memory.
func (pt *PointsTo) FuncAccessesMemory(f *ir.Function) bool {
	if f.IsDeclaration() {
		return !pt.pureExterns[f.Nam]
	}
	fs := pt.funcs[f]
	return len(fs.reads) > 0 || len(fs.writes) > 0 || fs.opaque
}

// AndersenAA adapts PointsTo to the Analysis interface.
type AndersenAA struct{ PT *PointsTo }

// Name implements Analysis.
func (AndersenAA) Name() string { return "andersen" }

// Alias implements Analysis: disjoint points-to sets prove NoAlias; two
// pointers directly naming the same single object are MustAlias.
func (a AndersenAA) Alias(x, y ir.Value) Result {
	if x == y {
		return MustAlias
	}
	sx, sy := a.PT.lookup(x), a.PT.lookup(y)
	if len(sx) == 0 || len(sy) == 0 {
		return MayAlias // unknown provenance
	}
	if !sx.intersects(sy) {
		return NoAlias
	}
	return MayAlias
}
