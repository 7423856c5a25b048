// Package machine is the deterministic multicore timing simulator that
// stands in for the paper's 12-core Xeon testbed. The parallelizing tools
// produce schedules (DOALL chunks, HELIX sequential segments, DSWP
// pipeline stages); this package evaluates their discrete-event
// recurrences over *measured* per-iteration costs (obtained by running the
// original loop under the IR interpreter with cost attribution) and
// composes the result into a whole-program speedup via Amdahl's law.
package machine

import (
	"noelle/internal/arch"
	"noelle/internal/interp"
)

// Config carries the simulation parameters shared by all schedules.
type Config struct {
	Cores int
	// CommLatency is the core-to-core signal latency (from arch).
	CommLatency int64
	// DispatchOverhead models spawning/joining one worker.
	DispatchOverhead int64
	// QueueLatency is the DSWP inter-stage queue push-to-pop time.
	QueueLatency int64
	// ReduceOverhead is the cost of folding one per-worker accumulator.
	ReduceOverhead int64
	// PerTaskOverhead is the cost of creating and retiring one dispatched
	// task invocation beyond the instructions the original loop already
	// executes: forking the worker context plus marshalling live-ins and
	// live-outs through environment cells. The technique planners charge
	// it per task their lowering actually dispatches — HELIX once per
	// block of iterations, DSWP once per stage, DOALL once per worker.
	PerTaskOverhead int64
}

// QueueOpCycles is what the interpreter charges for moving one value
// across a DSWP stage boundary: the producer's noelle_queue_push and the
// consumer's noelle_queue_pop, plus the call overhead of each
// (TestQueueLatencyCalibration pins it to what execution charges).
const QueueOpCycles = interp.CostQueuePush + interp.CostQueuePop + 2*interp.CostCallOver

// DefaultConfig derives a Config from an architecture description. Its
// QueueLatency is calibrated against the executable queue runtime: the
// cross-core signal latency plus QueueOpCycles, so SimulateDSWP's modeled
// pipeline times and the measured pipeline runs price a stage boundary
// consistently.
func DefaultConfig(d *arch.Description, cores int) Config {
	return Config{
		Cores:            cores,
		CommLatency:      d.AvgLatency(cores),
		DispatchOverhead: 400,
		QueueLatency:     d.AvgLatency(cores) + QueueOpCycles,
		ReduceOverhead:   30,
		PerTaskOverhead:  60,
	}
}

// Invocation holds the measured per-iteration, per-segment costs of one
// dynamic entry of a loop. Segment 0..n-1 follow the tool's partition; for
// DOALL there is a single segment per iteration.
type Invocation struct {
	// IterSegCosts[i][s] is the cycles iteration i spends in segment s.
	IterSegCosts [][]int64
}

// TotalCycles is the sequential time of the invocation.
func (inv *Invocation) TotalCycles() int64 {
	var t int64
	for _, segs := range inv.IterSegCosts {
		for _, c := range segs {
			t += c
		}
	}
	return t
}

// SimulateDOALL schedules iterations in chunks of chunkSize, round-robin
// across cores, and returns the parallel cycles of the invocation.
func SimulateDOALL(inv *Invocation, cfg Config, chunkSize int) int64 {
	n := len(inv.IterSegCosts)
	if n == 0 {
		return 0
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	coreTime := make([]int64, cfg.Cores)
	core := 0
	for start := 0; start < n; start += chunkSize {
		end := start + chunkSize
		if end > n {
			end = n
		}
		var chunk int64
		for i := start; i < end; i++ {
			for _, c := range inv.IterSegCosts[i] {
				chunk += c
			}
		}
		coreTime[core%cfg.Cores] += chunk
		core++
	}
	maxT := int64(0)
	for _, t := range coreTime {
		if t > maxT {
			maxT = t
		}
	}
	// Spawn/join once per worker, plus one reduction fold per worker.
	return maxT + cfg.DispatchOverhead + int64(cfg.Cores)*cfg.ReduceOverhead
}

// SimulateHELIX distributes the invocation's rows round-robin across
// cores — iterations, or the blocks of iterations the HELIX lowering
// dispatches, folded by its planner. Each row runs its sequential
// segments in order; a segment cannot start before the same segment of
// the previous row has finished plus the cross-core signal latency. The
// last segment index is treated as the parallel portion (no cross-row
// constraint).
//
// IterSegCosts[i] = [seq0, seq1, ..., seqK, parallel].
func SimulateHELIX(inv *Invocation, cfg Config) int64 {
	n := len(inv.IterSegCosts)
	if n == 0 {
		return 0
	}
	numSegs := len(inv.IterSegCosts[0])
	coreFree := make([]int64, cfg.Cores)
	segFree := make([]int64, numSegs) // release time of each segment's lock
	var finish int64
	for i := 0; i < n; i++ {
		c := i % cfg.Cores
		t := coreFree[c]
		segs := inv.IterSegCosts[i]
		for s := 0; s < len(segs); s++ {
			isParallel := s == len(segs)-1
			if !isParallel {
				// Wait for the previous iteration's signal (cross-core
				// when the previous iteration ran elsewhere).
				wait := segFree[s]
				if cfg.Cores > 1 {
					wait += cfg.CommLatency
				}
				if wait > t {
					t = wait
				}
			}
			t += segs[s]
			if !isParallel {
				segFree[s] = t
			}
		}
		coreFree[c] = t
		if t > finish {
			finish = t
		}
	}
	return finish + cfg.DispatchOverhead
}

// SimulateDSWP pins each segment (pipeline stage) to its own core. Stage s
// of iteration i starts after stage s of iteration i-1 (same core) and
// after stage s-1 of iteration i plus the queue latency.
func SimulateDSWP(inv *Invocation, cfg Config) int64 {
	n := len(inv.IterSegCosts)
	if n == 0 {
		return 0
	}
	numStages := len(inv.IterSegCosts[0])
	if numStages > cfg.Cores {
		numStages = cfg.Cores // fold surplus stages onto the last core
	}
	stageFree := make([]int64, numStages)
	var finish int64
	for i := 0; i < n; i++ {
		var prevStageEnd int64
		segs := inv.IterSegCosts[i]
		for s := 0; s < len(segs); s++ {
			stage := s
			if stage >= numStages {
				stage = numStages - 1
			}
			start := stageFree[stage]
			if s > 0 {
				arrival := prevStageEnd + cfg.QueueLatency
				if arrival > start {
					start = arrival
				}
			}
			end := start + segs[s]
			stageFree[stage] = end
			prevStageEnd = end
			if end > finish {
				finish = end
			}
		}
	}
	return finish + cfg.DispatchOverhead
}

// Speedup composes per-loop parallel times into a whole-program speedup:
// the program's sequential cycles, minus each parallelized loop's
// sequential cycles, plus its simulated parallel cycles.
func Speedup(totalSeq int64, loopSeq, loopPar []int64) float64 {
	newTotal := totalSeq
	for i := range loopSeq {
		newTotal -= loopSeq[i]
		newTotal += loopPar[i]
	}
	if newTotal <= 0 {
		newTotal = 1
	}
	return float64(totalSeq) / float64(newTotal)
}
