// Observation on the compiled tier. A context that wants a profile or a
// loop's per-iteration costs does not hook the walker: it asks, and the
// functions it then calls are compiled with the counting bound in as ops
// of their own (cCount, cLoopIter, ...), zero steps and zero cycles each.
// Such a stream is a variant of the function's plain one, cached beside
// it on the image (image.probed) and keyed by the request the way a plain
// stream is keyed by its cost model; the plain stream never carries a
// probe and the executor's per-op and per-edge path never tests for one.
//
// An observing context is the only one of its run: it dispatches
// sequentially, as a hooked context does, so a request's counters and
// rows have one writer and the compile-time appends below need no lock.
// The walker and its hooks stay the executable reference the probes are
// held to (profiler and machine test suites, `make tier-diff`).

package interp

import (
	"errors"
	"fmt"

	"noelle/internal/ir"
)

// probes is the observation a context has asked for, and so the variant
// of a function's op stream it runs. The zero value is the plain stream.
type probes struct {
	counts *EdgeCounts
	loop   *LoopCosts
}

// in narrows the request to what f's stream carries: edge counters go
// into every function, a loop's probes only into the loop's own.
func (p probes) in(f *ir.Function) probes {
	if p.loop != nil && p.loop.header.Parent != f {
		p.loop = nil
	}
	return p
}

// observing reports whether this context serves an observation request.
func (it *Interp) observing() bool { return it.probes != probes{} }

// errHookedObservation: hooks pin a context to the walker, which serves
// no request, so the profile would come back empty rather than wrong.
var errHookedObservation = errors.New("a hooked context runs on the walker")

// EdgeCounts is a counting request: how often the run took each CFG edge
// and entered each function. Block counts follow (a block is entered once
// per in-edge taken, plus once per call when it is the entry).
type EdgeCounts struct {
	// Counter i counts edge from[i] -> to[i]; from[i] is nil for the
	// function-entry counter of to[i]'s function.
	from, to []*ir.Block
	n        []int64
}

// CountEdges asks this context to count CFG edges and function entries
// in everything it runs from now on. Read the result with Each after the
// run.
func (it *Interp) CountEdges() *EdgeCounts {
	it.probes.counts = &EdgeCounts{}
	return it.probes.counts
}

// counter allocates the counter of edge from -> to (compile time).
func (c *EdgeCounts) counter(from, to *ir.Block) int64 {
	c.from, c.to, c.n = append(c.from, from), append(c.to, to), append(c.n, 0)
	return int64(len(c.n) - 1)
}

// Each yields every counter that fired: an edge with its count, or
// (nil, entry) with the number of calls of entry's function. An edge may
// be yielded more than once (a conditional branch with both arms on one
// block has two counters); the counts add.
func (c *EdgeCounts) Each(yield func(from, to *ir.Block, n int64)) {
	for i, n := range c.n {
		if n != 0 {
			yield(c.from[i], c.to[i], n)
		}
	}
}

// SegSpec names one segmentation of a loop: the instruction → segment
// assignment and the segment count. Instructions outside the map belong
// to segment NumSegs-1 (the parallel/default segment).
type SegSpec struct {
	SegmentOf map[*ir.Instr]int
	NumSegs   int
}

// LoopCosts is a loop-cost request: for every dynamic invocation of one
// natural loop, what each iteration spent in each segment, under several
// segmentations at once. A row has one column per segment of every spec,
// side by side, so one charge prices all of them.
//
// An invocation begins when the header is entered and none is open, moves
// to its next row at every further header entry, and ends at the first
// block outside the loop. Everything an in-loop call executes — callees,
// externs, a recursive entry of the loop's own function — is the change
// in Cycles across it, charged to the call's segment; while it runs
// (depth > 0) no probe acts.
type LoopCosts struct {
	header *ir.Block
	inLoop map[*ir.Block]bool
	exits  map[*ir.Block]bool // out-of-loop successors of loop blocks
	specs  []SegSpec
	offs   []int // spec i's first column
	width  int   // columns per row

	// Bound at compile time, indexed by the probe ops' k.
	blocks [][]charge // an in-loop block's static cost, by column
	calls  []callSite

	active    bool
	depth     int   // in-loop calls on the stack
	callStart int64 // Cycles when the outermost of them began
	flat      []int64
	done      [][][][]int64 // [spec][invocation][iteration][segment]
}

type charge struct {
	col    int
	cycles int64
}

// callSite is one in-loop call: its own cost (already in its block's
// static charge) and the column of its segment under each spec.
type callSite struct {
	own  int64
	cols []int
}

// ObserveLoop asks this context to measure the loop with the given header
// and blocks under each of specs. Read the result with Invocations after
// the run.
func (it *Interp) ObserveLoop(header *ir.Block, blocks map[*ir.Block]bool, specs []SegSpec) (*LoopCosts, error) {
	lc := &LoopCosts{header: header, inLoop: blocks, exits: map[*ir.Block]bool{}, specs: specs,
		done: make([][][][]int64, len(specs))}
	for _, sp := range specs {
		if sp.NumSegs < 1 {
			return nil, fmt.Errorf("interp: segmentation with %d segments", sp.NumSegs)
		}
		for in, seg := range sp.SegmentOf {
			if seg < 0 || seg >= sp.NumSegs {
				return nil, fmt.Errorf("interp: %s assigned to segment %d of %d", in.Ident(), seg, sp.NumSegs)
			}
		}
		lc.offs = append(lc.offs, lc.width)
		lc.width += sp.NumSegs
	}
	for b := range blocks {
		for _, s := range b.Successors() {
			if !blocks[s] {
				lc.exits[s] = true
			}
		}
	}
	it.probes.loop = lc
	return lc, nil
}

// cols returns in's column under each spec.
func (lc *LoopCosts) cols(in *ir.Instr) []int {
	cols := make([]int, len(lc.specs))
	for i, sp := range lc.specs {
		seg, ok := sp.SegmentOf[in]
		if !ok {
			seg = sp.NumSegs - 1
		}
		cols[i] = lc.offs[i] + seg
	}
	return cols
}

// blockProbe returns the op that opens b's stream in the loop's function:
// next-iteration at the header and a plain charge at every other loop
// block, both carrying the block's static cost (phis included: the walker
// retires them after the block is entered), end-invocation where the loop
// is left, nothing elsewhere.
func (lc *LoopCosts) blockProbe(b *ir.Block, cost CostModel) (cop, bool) {
	switch {
	case lc.inLoop[b]:
		row := make([]int64, lc.width)
		for _, in := range b.Instrs {
			for _, col := range lc.cols(in) {
				row[col] += cost.Cost(in)
			}
		}
		var cs []charge
		for col, c := range row {
			if c != 0 {
				cs = append(cs, charge{col, c})
			}
		}
		lc.blocks = append(lc.blocks, cs)
		code := cLoopBlock
		if b == lc.header {
			code = cLoopIter
		}
		return cop{code: code, dst: -1, k: int64(len(lc.blocks) - 1)}, true
	case lc.exits[b]:
		return cop{code: cLoopExit, dst: -1}, true
	}
	return cop{}, false
}

// callProbes returns the pair of ops that bracket an in-loop call.
func (lc *LoopCosts) callProbes(in *ir.Instr, cost CostModel) (before, after cop) {
	lc.calls = append(lc.calls, callSite{own: cost.Cost(in), cols: lc.cols(in)})
	return cop{code: cLoopCall, dst: -1}, cop{code: cLoopReturn, dst: -1, k: int64(len(lc.calls) - 1)}
}

// iterate is cLoopIter: the header was entered.
func (lc *LoopCosts) iterate(k int64) {
	if lc.depth > 0 {
		return
	}
	if !lc.active {
		lc.active = true
		lc.flat = nil // one backing slice per invocation
	}
	lc.flat = append(lc.flat, make([]int64, lc.width)...) // extends in place: no temporary
	lc.charge(k)
}

// charge is cLoopBlock: a loop block was entered.
func (lc *LoopCosts) charge(k int64) {
	if lc.depth > 0 || !lc.active {
		return
	}
	row := lc.flat[len(lc.flat)-lc.width:]
	for _, c := range lc.blocks[k] {
		row[c.col] += c.cycles
	}
}

// exit is cLoopExit: a block just outside the loop was entered. The
// invocation's rows are cut, per spec, from its one backing slice.
func (lc *LoopCosts) exit() {
	if lc.depth > 0 || !lc.active {
		return
	}
	lc.active = false
	n := len(lc.flat) / lc.width
	for i, sp := range lc.specs {
		rows := make([][]int64, n)
		for r := range rows {
			at := r*lc.width + lc.offs[i]
			rows[r] = lc.flat[at : at+sp.NumSegs : at+sp.NumSegs]
		}
		lc.done[i] = append(lc.done[i], rows)
	}
}

// call is cLoopCall: an in-loop call is about to run.
func (lc *LoopCosts) call(cycles int64) {
	if lc.depth++; lc.depth == 1 {
		lc.callStart = cycles
	}
}

// returned is cLoopReturn: the call has come back.
func (lc *LoopCosts) returned(k, cycles int64) {
	if lc.depth--; lc.depth > 0 || !lc.active {
		return
	}
	site := &lc.calls[k]
	row := lc.flat[len(lc.flat)-lc.width:]
	for _, col := range site.cols {
		row[col] += cycles - lc.callStart - site.own
	}
}

// Invocations returns, per spec, every invocation's per-iteration rows:
// result[s][v][i][g] is what iteration i of invocation v spent in segment
// g of specs[s]. An invocation the run ended inside of is closed first.
func (lc *LoopCosts) Invocations() [][][][]int64 {
	lc.depth = 0
	lc.exit()
	return lc.done
}
