package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Attribution decomposes where a traced parallel run's wall-clock went.
// The decomposition is an exact identity over the run:
//
//	wall = serial + run_crit + blocked_crit + dispatch_overhead
//
// where, per dispatch, the critical lane is the busiest one (the lane
// the barrier waits for): run_crit is its non-communication execution
// time, blocked_crit its time inside queue/signal operations (parking
// plus operation cost), and dispatch_overhead the dispatch lifetime not
// covered by the critical lane (forking contexts, goroutine startup,
// the barrier, absorb). serial is everything outside dispatches.
// Everything except run_crit and serial is parallelization tax.
type Attribution struct {
	WallMS float64
	// EffLanes is the maximum number of lanes that executed tasks
	// concurrently in any dispatch, capped at GOMAXPROCS (the machine
	// cannot run more lanes than that at once, whatever the fan-out).
	EffLanes int

	SerialMS      float64
	RunCritMS     float64
	BlockedCritMS float64
	OverheadMS    float64

	// BlockedMS totals communication-operation time across every lane
	// (not just critical ones); QueueBlockP95MS / SignalWaitMS summarize
	// the pooled operation histograms; the Park* fields count only time
	// actually parked on a cond var (the queue runtime's park profile).
	BlockedMS       float64
	QueueBlockP95MS float64
	SignalWaitMS    float64
	ParkPushMS      float64
	ParkPopMS       float64
	ParkWaitMS      float64

	// Lanes is the per-lane utilization breakdown; Stages additionally
	// splits lane time by worker index (present only when the run's
	// distinct worker indices are few — DSWP stages, not HELIX's
	// per-iteration workers).
	Lanes  []LaneBreakdown
	Stages []StageBreakdown
}

// LaneBreakdown is one dispatch lane's blocked-vs-running split.
type LaneBreakdown struct {
	Dispatch  int
	Lane      int
	Label     string
	BusyMS    float64
	BlockedMS float64
	UtilPct   float64
}

// StageBreakdown aggregates task spans by worker index: for a DSWP
// pipeline the worker index is the stage, so this is the per-stage
// utilization the pipeline study reports. BlockedMS counts only kept
// timeline spans (ops at least SpanThreshold long) nested inside the
// stage's task spans, so it reflects genuine stalls, not op cost.
type StageBreakdown struct {
	Worker    int64
	BusyMS    float64
	BlockedMS float64
	UtilPct   float64
}

// maxStageRows bounds the per-stage table and the rendered lane list: a
// HELIX run has one worker index per block of iterations (and a hostile
// module as many as it likes), which is a timeline concern, not a table.
const maxStageRows = 32

func msOf(ns float64) float64 { return ns / 1e6 }

// commKinds are the span kinds that count as communication (blocking)
// time on a lane.
var commKinds = [...]SpanKind{SpanQueuePush, SpanQueuePop, SpanSignalWait}

// AttributeTrace computes the attribution of one traced run whose
// measured wall-clock was wall. The three park totals are the queue
// runtime's cumulative parked nanoseconds per operation type, passed
// as plain numbers so this package stays a leaf.
func AttributeTrace(tr *Tracer, wall time.Duration, parkPushNS, parkPopNS, parkWaitNS int64) *Attribution {
	a := &Attribution{
		WallMS:     msOf(float64(wall.Nanoseconds())),
		ParkPushMS: msOf(float64(parkPushNS)),
		ParkPopMS:  msOf(float64(parkPopNS)),
		ParkWaitMS: msOf(float64(parkWaitNS)),
	}

	recs := tr.Recorders()
	var queueHist Hist
	for _, r := range recs {
		for _, k := range commKinds {
			h := r.Agg(k)
			a.BlockedMS += msOf(float64(h.TotalNS))
			if k == SpanSignalWait {
				a.SignalWaitMS += msOf(float64(h.TotalNS))
			} else {
				queueHist.Merge(&h)
			}
		}
	}
	a.QueueBlockP95MS = msOf(float64(queueHist.Quantile(0.95)))

	a.Lanes = laneBreakdowns(recs)
	a.Stages = stageBreakdowns(recs)
	byDispatch := map[int][]LaneBreakdown{}
	for _, l := range a.Lanes {
		byDispatch[l.Dispatch] = append(byDispatch[l.Dispatch], l)
	}
	a.SerialMS = a.WallMS
	for seq, ds := range tr.DispatchSpans() {
		lanes := byDispatch[int(seq)]
		var crit LaneBreakdown
		for _, l := range lanes {
			if l.BusyMS > crit.BusyMS {
				crit = l
			}
		}
		if len(lanes) > a.EffLanes {
			a.EffLanes = len(lanes)
		}
		dur := msOf(float64(ds.Dur))
		busy := crit.BusyMS
		if busy > dur {
			busy = dur // clock-skew clamp
		}
		a.RunCritMS += busy - crit.BlockedMS
		a.BlockedCritMS += crit.BlockedMS
		a.OverheadMS += dur - busy
		a.SerialMS -= dur
	}
	if a.SerialMS < 0 {
		a.SerialMS = 0
	}
	if procs := runtime.GOMAXPROCS(0); a.EffLanes > procs {
		a.EffLanes = procs
	}
	if a.EffLanes < 1 {
		a.EffLanes = 1
	}
	return a
}

// laneBreakdowns lists every lane that executed a task, in recorder
// creation order.
func laneBreakdowns(recs []*Recorder) []LaneBreakdown {
	var out []LaneBreakdown
	for _, r := range recs {
		busy := float64(r.Agg(SpanTask).TotalNS)
		if r.Worker < 0 || busy <= 0 {
			continue
		}
		var block float64
		for _, k := range commKinds {
			block += float64(r.Agg(k).TotalNS)
		}
		if block > busy {
			block = busy // nested-dispatch double counting guard
		}
		out = append(out, LaneBreakdown{
			Dispatch: r.Group, Lane: r.Worker, Label: r.Label,
			BusyMS:    msOf(busy),
			BlockedMS: msOf(block),
			UtilPct:   100 * (busy - block) / busy,
		})
	}
	return out
}

// stageBreakdowns rebuilds the per-worker split from kept timeline
// spans: each task span's duration accrues to its worker index, and a
// kept communication span accrues to the task span whose interval
// contains it (spans are lane-local, so containment is unambiguous).
func stageBreakdowns(recs []*Recorder) []StageBreakdown {
	busy := map[int64]float64{}
	blocked := map[int64]float64{}
	for _, r := range recs {
		var tasks []Span
		for _, s := range r.Spans() {
			if s.Kind == SpanTask {
				tasks = append(tasks, s)
				busy[s.Arg] += float64(s.Dur)
				if len(busy) > maxStageRows {
					return nil
				}
			}
		}
		if len(tasks) == 0 {
			continue
		}
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].Start < tasks[j].Start })
		for _, s := range r.Spans() {
			switch s.Kind {
			case SpanQueuePush, SpanQueuePop, SpanSignalWait:
				// Rightmost task starting at or before the op start; ops
				// outside any task (sequential-context comm) stay unassigned.
				i := sort.Search(len(tasks), func(i int) bool { return tasks[i].Start > s.Start }) - 1
				if i >= 0 && s.Start < tasks[i].Start+tasks[i].Dur {
					blocked[tasks[i].Arg] += float64(s.Dur)
				}
			}
		}
	}
	workers := make([]int64, 0, len(busy))
	for w := range busy {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	out := make([]StageBreakdown, 0, len(workers))
	for _, w := range workers {
		b := busy[w]
		out = append(out, StageBreakdown{
			Worker: w, BusyMS: msOf(b), BlockedMS: msOf(blocked[w]),
			UtilPct: 100 * (b - blocked[w]) / b,
		})
	}
	return out
}

// Format renders the decomposition as the "where did the time go"
// footer lines.
func (a *Attribution) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "where did the time go: wall %.1fms = serial %.1fms + run(crit) %.1fms + blocked(crit) %.1fms + dispatch overhead %.1fms (%d effective lanes)\n",
		a.WallMS, a.SerialMS, a.RunCritMS, a.BlockedCritMS, a.OverheadMS, a.EffLanes)
	fmt.Fprintf(&b, "  comm time %.1fms total (queue-op p95 %.3fms, signal waits %.1fms; parked: push %.1fms, pop %.1fms, wait %.1fms)\n",
		a.BlockedMS, a.QueueBlockP95MS, a.SignalWaitMS, a.ParkPushMS, a.ParkPopMS, a.ParkWaitMS)
	for i, l := range a.Lanes {
		if i == maxStageRows {
			fmt.Fprintf(&b, "  ... %d more lanes\n", len(a.Lanes)-i)
			break
		}
		fmt.Fprintf(&b, "  lane %s: busy %.1fms, blocked %.1fms (%.0f%% running)\n",
			l.Label, l.BusyMS, l.BlockedMS, l.UtilPct)
	}
	for _, st := range a.Stages {
		fmt.Fprintf(&b, "  stage w%d: busy %.1fms, blocked %.1fms (%.0f%% running)\n",
			st.Worker, st.BusyMS, st.BlockedMS, st.UtilPct)
	}
	return b.String()
}
