// Package obs is the runtime observability plane of the parallel
// interpreter: low-overhead span tracing plus a metrics registry, built
// to answer "where did the parallel wall-clock go?" — the question a
// modeled 2–4x speedup raises when it collapses to ~1x measured
// (AttributeTrace is the answer's one implementation).
//
// The recording model is one Recorder per execution lane (one dispatch
// goroutine, or the root context), owned exclusively by that lane's
// goroutine: recording a span is two clock reads, a few array updates,
// and an amortized append — no locks, no atomics, no allocations on the
// steady state. The Tracer only synchronizes recorder *creation* (rare:
// once per lane per dispatch) and post-run aggregation, so tracing-on
// overhead stays far below the cost of the operations it measures, and
// tracing-off overhead is a single nil check at each instrumented site
// (see the benchmarks in internal/interp).
//
// Two sinks consume the recorded data:
//
//   - a metrics view: per-kind counters, totals, maxima, and log-scale
//     duration histograms with p50/p95/p99 (Summaries, MergeInto +
//     Registry), and
//   - a Chrome trace-event exporter (WriteChromeTrace): a
//     chrome://tracing- and Perfetto-loadable timeline of lanes x spans,
//     where the blocked intervals of every worker are visible as wide
//     queue_push/queue_pop/signal_wait slices.
//
// Every span is always folded into its recorder's per-kind aggregates;
// the individual span record (for the timeline) is kept only when the
// span is structural (dispatch, task) or longer than SpanThreshold, so a
// million sub-microsecond queue operations cost a million histogram
// updates, not a million timeline events.
package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// SpanKind classifies a recorded interval. The taxonomy mirrors the
// parallel runtime's time sinks: a dispatch's whole lifetime, one task
// invocation on a lane, and the three blocking communication operations.
type SpanKind uint8

const (
	// SpanDispatch covers one noelle_dispatch call, recorded by the
	// dispatching context. Arg is the dispatch sequence number, which
	// lane recorders of the same dispatch carry as their Group.
	SpanDispatch SpanKind = iota
	// SpanTask covers one task invocation on a lane. Arg is the worker
	// index the invocation ran as.
	SpanTask
	// SpanQueuePush covers one noelle_queue_push, including any time
	// parked on a full queue. Arg is the queue handle.
	SpanQueuePush
	// SpanQueuePop covers one noelle_queue_pop, including any time
	// parked on an empty queue. Arg is the queue handle.
	SpanQueuePop
	// SpanSignalWait covers one noelle_signal_wait, including any time
	// parked on an unreached ticket. Arg is the signal handle.
	SpanSignalWait

	// NumSpanKinds sizes per-kind aggregate arrays.
	NumSpanKinds = int(SpanSignalWait) + 1
)

var spanKindNames = [NumSpanKinds]string{
	"dispatch", "task", "queue_push", "queue_pop", "signal_wait",
}

func (k SpanKind) String() string {
	if int(k) < NumSpanKinds {
		return spanKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Span is one recorded interval: start is nanoseconds since the tracer's
// epoch, so every span of a trace shares one monotonic timebase.
type Span struct {
	Kind  SpanKind
	Arg   int64 // kind-specific: queue/signal handle, worker index, dispatch seq
	Start int64 // ns since the tracer epoch
	Dur   int64 // ns
}

// DefaultSpanThreshold is the default duration floor for keeping
// individual communication-op spans in the timeline (aggregates always
// record every op). 10us keeps genuine parks and drops the mutex-scale
// fast ops that would otherwise bloat the export by orders of magnitude.
const DefaultSpanThreshold = 10 * time.Microsecond

// maxSpansPerRecorder bounds one lane's timeline memory; spans beyond it
// are counted as dropped but still aggregated.
const maxSpansPerRecorder = 1 << 20

// Tracer owns the recorders of one traced run. Create one, set it on the
// root interpreter context before Run, and read it (Summaries,
// WriteChromeTrace, MergeInto) only after the run completes — recorders
// are written lock-free by their owning lanes while execution is live.
type Tracer struct {
	// SpanThreshold is the minimum duration for an individual
	// communication-op span to be kept for the timeline (structural
	// dispatch/task spans are always kept). Zero keeps every span.
	// Set before the run starts.
	SpanThreshold time.Duration

	epoch time.Time
	now   func() time.Time // test seam: defaults to time.Now

	mu   sync.Mutex
	recs []*Recorder
}

// NewTracer returns a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{
		SpanThreshold: DefaultSpanThreshold,
		epoch:         time.Now(),
		now:           time.Now,
	}
}

// NewRecorder registers a recorder for one execution lane. Group ties
// lane recorders to the dispatch that forked them (the SpanDispatch
// span with Arg == group); worker is the lane index within that
// dispatch, or -1 for a root context. Safe to call concurrently; the
// returned recorder must only ever be used by one goroutine at a time.
func (t *Tracer) NewRecorder(group, worker int, label string) *Recorder {
	r := &Recorder{
		t:      t,
		Group:  group,
		Worker: worker,
		Label:  label,
		spans:  make([]Span, 0, 256),
	}
	t.mu.Lock()
	r.tid = len(t.recs)
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// recorders snapshots the recorder list.
func (t *Tracer) recorders() []*Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Recorder(nil), t.recs...)
}

// Recorders returns every registered recorder in creation order. Like
// every read-side API, call it only after the traced run has completed.
func (t *Tracer) Recorders() []*Recorder { return t.recorders() }

// Recorder collects the spans and per-kind aggregates of one execution
// lane. All methods must be called from the lane's owning goroutine.
type Recorder struct {
	// Group is the dispatch sequence number this lane belongs to (0 for
	// root contexts).
	Group int
	// Worker is the lane index within its dispatch, -1 for root contexts.
	Worker int
	// Label names the lane in exports (e.g. "main", "d1.w2").
	Label string

	t       *Tracer
	tid     int
	spans   []Span
	dropped int64
	aggs    [NumSpanKinds]Hist
}

// Clock returns the tracer's current time; pass it back to Record as the
// span's start.
func (r *Recorder) Clock() time.Time { return r.t.now() }

// Record closes a span opened at start: the interval is folded into the
// per-kind aggregate, and kept for the timeline when it is structural
// (dispatch/task) or at least SpanThreshold long.
func (r *Recorder) Record(kind SpanKind, arg int64, start time.Time) {
	dur := r.t.now().Sub(start).Nanoseconds()
	if dur < 0 {
		dur = 0
	}
	r.aggs[kind].Observe(dur)
	if kind > SpanTask && dur < int64(r.t.SpanThreshold) {
		return
	}
	if len(r.spans) >= maxSpansPerRecorder {
		r.dropped++
		return
	}
	r.spans = append(r.spans, Span{Kind: kind, Arg: arg, Start: start.Sub(r.t.epoch).Nanoseconds(), Dur: dur})
}

// Spans returns the recorded timeline spans (post-run only).
func (r *Recorder) Spans() []Span { return r.spans }

// Agg returns a copy of the lane's aggregate histogram for one span kind
// (every recorded span is folded in, kept for the timeline or not).
func (r *Recorder) Agg(kind SpanKind) Hist { return r.aggs[kind] }

// LaneSummary is one lane's aggregate view: per-kind counts, totals and
// histograms, plus the identity fields needed to group lanes by dispatch.
type LaneSummary struct {
	Group   int
	Worker  int
	Label   string
	Dropped int64
	Kinds   [NumSpanKinds]Hist
}

// TotalNS sums the aggregate totals of the given kinds.
func (s *LaneSummary) TotalNS(kinds ...SpanKind) int64 {
	var n int64
	for _, k := range kinds {
		n += s.Kinds[k].TotalNS
	}
	return n
}

// Summaries returns every lane's aggregates in recorder-creation order.
// Call only after the traced run has completed.
func (t *Tracer) Summaries() []LaneSummary {
	recs := t.recorders()
	out := make([]LaneSummary, len(recs))
	for i, r := range recs {
		out[i] = LaneSummary{Group: r.Group, Worker: r.Worker, Label: r.Label, Dropped: r.dropped, Kinds: r.aggs}
	}
	return out
}

// DispatchSpans returns every SpanDispatch span across all recorders,
// keyed by its dispatch sequence number (the span Arg).
func (t *Tracer) DispatchSpans() map[int64]Span {
	out := map[int64]Span{}
	for _, r := range t.recorders() {
		for _, s := range r.spans {
			if s.Kind == SpanDispatch {
				out[s.Arg] = s
			}
		}
	}
	return out
}

// MergeInto folds the tracer's aggregates into a metrics registry: one
// histogram per span kind (pooled over lanes) named span.<kind>, plus
// span.dropped and lane counters.
func (t *Tracer) MergeInto(reg *Registry) {
	var dropped, lanes int64
	for _, s := range t.Summaries() {
		lanes++
		dropped += s.Dropped
		for k := 0; k < NumSpanKinds; k++ {
			if s.Kinds[k].Count > 0 {
				reg.ObserveHist("span."+SpanKind(k).String(), &s.Kinds[k])
			}
		}
	}
	reg.Count("trace.lanes", lanes)
	reg.Count("trace.spans_dropped", dropped)
}

// histBuckets is the log2-nanosecond bucket count: bucket i holds
// durations in [2^i, 2^(i+1)) ns, covering 1ns to ~18 minutes.
const histBuckets = 40

// Hist is a log-scale duration histogram with exact count/total/max.
// Observe is not synchronized: a Hist is either lane-local (inside a
// Recorder) or registry-owned behind the registry mutex.
type Hist struct {
	Count   int64
	TotalNS int64
	MaxNS   int64
	Buckets [histBuckets]int64
}

// Observe folds one duration (in ns) into the histogram.
func (h *Hist) Observe(ns int64) {
	h.Count++
	h.TotalNS += ns
	if ns > h.MaxNS {
		h.MaxNS = ns
	}
	h.Buckets[bucketOf(ns)]++
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	h.Count += o.Count
	h.TotalNS += o.TotalNS
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Quantile returns an upper bound on the q-quantile duration (ns): the
// top of the log2 bucket the quantile falls into, clamped to the exact
// observed maximum. q outside (0,1] is clamped.
func (h *Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0.5
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			upper := int64(1) << uint(i+1)
			if upper > h.MaxNS {
				upper = h.MaxNS
			}
			return upper
		}
	}
	return h.MaxNS
}

// MeanNS returns the exact mean duration.
func (h *Hist) MeanNS() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.TotalNS / h.Count
}
