// Observation on the compiled tier. A context that wants a profile or a
// loop's per-iteration costs does not hook the walker: it asks, and the
// functions it then calls are compiled with the counting bound in as ops
// of their own (cCount, cLoopIter, ...), zero steps and zero cycles each.
// Such a stream is a variant of the function's plain one, cached beside
// it on the image (image.probed) and keyed by the request; the plain
// stream never carries a probe and the executor's per-op and per-edge
// path never tests for one.
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
	"slices"

	"noelle/internal/ir"
)

// probes is the observation a context has asked for, and so the variant
// of a function's op stream it runs. The zero value is the plain stream.
type probes struct {
	counts *EdgeCounts
	loops  *loopSet
}

// in narrows the request to what f's stream carries: edge counters go
// into every function, loop probes only into a function that holds an
// observed loop.
func (p probes) in(f *ir.Function) probes {
	if p.loops != nil && !p.loops.fns[f] {
		p.loops = nil
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

// LoopRequest names one loop to observe: its header and blocks, the
// segmentations to price it under, and the consumer of its invocations.
type LoopRequest struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
	Specs  []SegSpec
	// Invocation receives every invocation of the loop as it closes, once
	// per spec in spec order: rows[i][g] is what iteration i spent in
	// segment g of Specs[spec]. rows and its cells are views the run
	// reuses once the call returns: copy what must outlive it. Nil
	// discards the invocations.
	Invocation func(spec int, rows [][]int64)
}

// LoopCosts is one loop's share of a loop-cost request: for every dynamic
// invocation of the loop, what each iteration spent in each segment, under
// several segmentations at once. A row has one column per segment of every
// spec, side by side, so one charge prices all of them.
//
// An invocation begins when the header is entered and none is open, moves
// to its next row at every further header entry, and ends at the first
// block outside the loop. Everything an in-loop call executes — callees,
// externs, a recursive entry of the loop's own function — is the change
// in Cycles across it, charged to the call's segment; while it runs
// (depth > 0) none of this loop's probes acts. The depth is the loop's
// own, so a loop in a callee is observed while its caller's stands down.
//
// Rows are kept only while their invocation is open: when it closes they
// go to the request's consumer, spec by spec, and their chunks back to the
// request's free list. So what a run holds is its open invocations' rows,
// never a row per iteration it has run.
type LoopCosts struct {
	set     *loopSet
	header  *ir.Block
	inLoop  map[*ir.Block]bool
	exits   map[*ir.Block]bool // out-of-loop successors of loop blocks
	specs   []SegSpec
	offs    []int // spec i's first column
	width   int   // columns per row
	consume func(spec int, rows [][]int64)

	active    bool
	depth     int   // in-loop calls on the stack
	callStart int64 // Cycles when the outermost of them began
	// The open invocation's rows, width cells each, in chunks that never
	// move, so nothing is copied as an invocation grows; row is the open
	// iteration's.
	runs [][]int64
	row  []int64
}

// loopSet is a context's loop-cost request: every observed loop, and the
// tables the probe ops index, bound at compile time, each entry tagged
// with the loop it charges. Probes retire nothing and each touches its own
// loop only, so every loop's rows are what a request of it alone gives.
type loopSet struct {
	loops  []*LoopCosts
	fns    map[*ir.Function]bool // the observed loops' functions
	blocks []blockCharge         // cLoopIter, cLoopBlock
	exits  []*LoopCosts          // cLoopExit
	calls  []callSite            // cLoopCall, cLoopReturn
	// free holds the chunks of closed invocations, for any loop's next
	// rows, and views is the row list a consumer is handed.
	free  [][]int64
	views [][]int64
}

// chunkCells is the size of a chunk of rows, unless one row is wider.
const chunkCells = 1024

type blockCharge struct {
	lc      *LoopCosts
	charges []charge
}

type charge struct {
	col    int
	cycles int64
}

// callSite is one in-loop call as one loop sees it: its own cost (already
// in its block's static charge) and the column of its segment under each
// of the loop's specs.
type callSite struct {
	lc   *LoopCosts
	own  int64
	cols []int
}

// ObserveLoops asks this context to measure every requested loop under its
// specs, all in the one run. Result i answers reqs[i]: its consumer
// receives each invocation as it closes, and Close, called after the run,
// hands it the one still open.
func (it *Interp) ObserveLoops(reqs []LoopRequest) ([]*LoopCosts, error) {
	set := &loopSet{fns: map[*ir.Function]bool{}}
	for _, r := range reqs {
		if len(r.Specs) == 0 {
			return nil, fmt.Errorf("interp: no segmentations of the loop at %s", r.Header.Nam)
		}
		lc := &LoopCosts{set: set, header: r.Header, inLoop: r.Blocks, exits: map[*ir.Block]bool{}, specs: r.Specs,
			consume: r.Invocation}
		for _, sp := range r.Specs {
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
		for b := range r.Blocks {
			for _, s := range b.Successors() {
				if !r.Blocks[s] {
					lc.exits[s] = true
				}
			}
		}
		set.loops = append(set.loops, lc)
		set.fns[r.Header.Parent] = true
	}
	it.probes.loops = set
	return set.loops, nil
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

// blockProbes returns the ops that open b's stream: per observed loop,
// next-iteration at its header and a plain charge at its other blocks,
// both carrying the block's static cost (phis included: the walker
// retires them after the block is entered), and end-invocation where the
// loop is left.
func (s *loopSet) blockProbes(b *ir.Block) []cop {
	var ops []cop
	for _, lc := range s.loops {
		switch {
		case lc.inLoop[b]:
			row := make([]int64, lc.width)
			for _, in := range b.Instrs {
				for _, col := range lc.cols(in) {
					row[col] += Cost(in)
				}
			}
			var cs []charge
			for col, c := range row {
				if c != 0 {
					cs = append(cs, charge{col, c})
				}
			}
			s.blocks = append(s.blocks, blockCharge{lc, cs})
			code := cLoopBlock
			if b == lc.header {
				code = cLoopIter
			}
			ops = append(ops, cop{code: code, dst: -1, k: int64(len(s.blocks) - 1)})
		case lc.exits[b]:
			s.exits = append(s.exits, lc)
			ops = append(ops, cop{code: cLoopExit, dst: -1, k: int64(len(s.exits) - 1)})
		}
	}
	return ops
}

// callProbes returns the ops that bracket a call in block b: one pair per
// observed loop holding b, the befores outermost loop first and the afters
// in reverse.
func (s *loopSet) callProbes(in *ir.Instr, b *ir.Block) (before, after []cop) {
	var holding []*LoopCosts
	for _, lc := range s.loops {
		if lc.inLoop[b] {
			holding = append(holding, lc)
		}
	}
	// Loops holding one block nest: the outer one has more blocks.
	slices.SortStableFunc(holding, func(x, y *LoopCosts) int { return len(y.inLoop) - len(x.inLoop) })
	for _, lc := range holding {
		s.calls = append(s.calls, callSite{lc: lc, own: Cost(in), cols: lc.cols(in)})
		k := int64(len(s.calls) - 1)
		before = append(before, cop{code: cLoopCall, dst: -1, k: k})
		after = append([]cop{{code: cLoopReturn, dst: -1, k: k}}, after...)
	}
	return before, after
}

// iterate is cLoopIter: a header was entered.
func (s *loopSet) iterate(k int64) {
	bc := &s.blocks[k]
	lc := bc.lc
	if lc.depth > 0 {
		return
	}
	lc.active = true
	lc.newRow()
	lc.charge(bc.charges)
}

// newRow opens the next iteration's row: the next width cells of the
// last chunk, or of one from the free list, or of a fresh one.
func (lc *LoopCosts) newRow() {
	last := len(lc.runs) - 1
	if last < 0 || cap(lc.runs[last])-len(lc.runs[last]) < lc.width {
		lc.runs = append(lc.runs, lc.set.chunk(lc.width))
		last++
	}
	run := lc.runs[last]
	lc.runs[last] = run[:len(run)+lc.width]
	lc.row = lc.runs[last][len(run):]
	clear(lc.row)
}

// chunk returns an empty chunk that holds at least one row width wide.
func (s *loopSet) chunk(width int) []int64 {
	if n := len(s.free) - 1; n >= 0 && cap(s.free[n]) >= width {
		c := s.free[n]
		s.free = s.free[:n]
		return c
	}
	return make([]int64, 0, max(chunkCells, width))
}

// charge is cLoopBlock: a loop block was entered.
func (s *loopSet) charge(k int64) {
	bc := &s.blocks[k]
	bc.lc.charge(bc.charges)
}

func (lc *LoopCosts) charge(cs []charge) {
	if lc.depth > 0 || !lc.active {
		return
	}
	for _, c := range cs {
		lc.row[c.col] += c.cycles
	}
}

// exit is cLoopExit: a block just outside a loop was entered.
func (s *loopSet) exit(k int64) { s.exits[k].exit() }

// exit closes the open invocation: its rows are handed, per spec, to the
// consumer, and its chunks go to the free list.
func (lc *LoopCosts) exit() {
	if lc.depth > 0 || !lc.active {
		return
	}
	lc.active = false
	s := lc.set
	if lc.consume != nil {
		n := 0
		for _, run := range lc.runs {
			n += len(run) / lc.width
		}
		// One row list serves every spec of every invocation: it grows to
		// the longest invocation, in as few steps as doubling takes.
		views := s.views[:0]
		if cap(views) < n {
			views = make([][]int64, 0, max(n, 2*cap(views)))
		}
		for i, sp := range lc.specs {
			views = views[:0]
			for _, run := range lc.runs {
				for at := lc.offs[i]; at < len(run); at += lc.width {
					views = append(views, run[at:at+sp.NumSegs:at+sp.NumSegs])
				}
			}
			lc.consume(i, views[:n:n])
		}
		s.views = views
	}
	for _, run := range lc.runs {
		s.free = append(s.free, run[:0])
	}
	clear(lc.runs)
	lc.runs, lc.row = lc.runs[:0], nil
}

// call is cLoopCall: an in-loop call is about to run.
func (s *loopSet) call(k, cycles int64) {
	lc := s.calls[k].lc
	if lc.depth++; lc.depth == 1 {
		lc.callStart = cycles
	}
}

// returned is cLoopReturn: the call has come back.
func (s *loopSet) returned(k, cycles int64) {
	site := &s.calls[k]
	lc := site.lc
	if lc.depth--; lc.depth > 0 || !lc.active {
		return
	}
	for _, col := range site.cols {
		lc.row[col] += cycles - lc.callStart - site.own
	}
}

// Close ends the run's observation of the loop: an invocation the run
// ended inside of is closed, and so goes to the consumer, like any other.
func (lc *LoopCosts) Close() {
	lc.depth = 0
	lc.exit()
}
