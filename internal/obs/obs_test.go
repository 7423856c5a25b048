package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock yields deterministic, strictly advancing timestamps.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(37 * time.Microsecond)
	return c.t
}

// newFakeTracer returns a tracer on a deterministic clock whose epoch is
// the clock's start, so span offsets are reproducible run to run.
func newFakeTracer(threshold time.Duration) *Tracer {
	c := &fakeClock{t: time.Unix(1000, 0)}
	return &Tracer{SpanThreshold: threshold, epoch: c.t, now: c.now}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 90 fast ops (~1us) and 10 slow ones (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if h.Count != 100 || h.TotalNS != 90*1000+10*1_000_000 {
		t.Fatalf("count/total wrong: %d/%d", h.Count, h.TotalNS)
	}
	if p50 := h.Quantile(0.50); p50 > 2048 {
		t.Errorf("p50 = %dns, want within the ~1us bucket", p50)
	}
	if p95 := h.Quantile(0.95); p95 < 500_000 {
		t.Errorf("p95 = %dns, want in the ~1ms bucket", p95)
	}
	if h.Quantile(1) != h.MaxNS {
		t.Errorf("p100 = %d, want exact max %d", h.Quantile(1), h.MaxNS)
	}
	if h.MeanNS() != h.TotalNS/100 {
		t.Errorf("mean = %d", h.MeanNS())
	}
	var m Hist
	m.Merge(&h)
	m.Merge(&h)
	if m.Count != 200 || m.MaxNS != h.MaxNS {
		t.Errorf("merge lost data: count=%d max=%d", m.Count, m.MaxNS)
	}
}

func TestRecorderThresholdAndAggregates(t *testing.T) {
	tr := newFakeTracer(50 * time.Microsecond)
	rec := tr.NewRecorder(1, 0, "d1.w0")

	// The fake clock advances 37us per read: one clock pair per Record
	// yields 37us spans. A queue op under a 50us threshold must be
	// aggregated but not kept; task spans are always kept.
	rec.Record(SpanQueuePush, 3, rec.Clock())
	rec.Record(SpanTask, 0, rec.Clock())

	if n := len(rec.Spans()); n != 1 {
		t.Fatalf("kept %d spans, want only the task span", n)
	}
	if rec.Spans()[0].Kind != SpanTask {
		t.Fatalf("kept span is %v", rec.Spans()[0].Kind)
	}
	s := tr.Summaries()[0]
	if s.Kinds[SpanQueuePush].Count != 1 || s.Kinds[SpanQueuePush].TotalNS != 37_000 {
		t.Errorf("push aggregate missing: %+v", s.Kinds[SpanQueuePush])
	}
	if got := s.TotalNS(SpanQueuePush, SpanTask); got != 74_000 {
		t.Errorf("TotalNS = %d, want 74000", got)
	}
	if s.Group != 1 || s.Worker != 0 || s.Label != "d1.w0" {
		t.Errorf("summary identity wrong: %+v", s)
	}
}

func TestRegistryFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Count("comm.pushes", 41)
	reg.Count("comm.pushes", 1)
	reg.Gauge("workers", 4)
	reg.Observe("op", 2*time.Millisecond)
	out := reg.Format()
	for _, want := range []string{"comm.pushes 42", "workers 4", "op count=1"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("Format() missing %q in:\n%s", want, out)
		}
	}
	if reg.Counter("comm.pushes") != 42 {
		t.Errorf("Counter = %d", reg.Counter("comm.pushes"))
	}
	if h := reg.Histogram("op"); h.Count != 1 {
		t.Errorf("Histogram copy lost data: %+v", h)
	}
}

func TestMergeInto(t *testing.T) {
	tr := newFakeTracer(0)
	a := tr.NewRecorder(1, 0, "d1.w0")
	b := tr.NewRecorder(1, 1, "d1.w1")
	a.Record(SpanQueuePush, 0, a.Clock())
	b.Record(SpanQueuePush, 0, b.Clock())
	b.Record(SpanSignalWait, 0, b.Clock())

	reg := NewRegistry()
	tr.MergeInto(reg)
	if got := reg.Histogram("span.queue_push").Count; got != 2 {
		t.Errorf("pooled push count = %d, want 2", got)
	}
	if reg.Counter("trace.lanes") != 2 {
		t.Errorf("lanes = %d", reg.Counter("trace.lanes"))
	}
}

// TestChromeTraceGolden locks the export format: a deterministic trace
// must serialize byte-identically to the committed golden file
// (regenerate with UPDATE_GOLDEN=1 go test ./internal/obs/).
func TestChromeTraceGolden(t *testing.T) {
	tr := newFakeTracer(0)
	root := tr.NewRecorder(0, -1, "main")
	dStart := root.Clock()
	w0 := tr.NewRecorder(1, 0, "d1.w0")
	t0 := w0.Clock()
	w0.Record(SpanQueuePush, 2, w0.Clock())
	w0.Record(SpanTask, 0, t0)
	w1 := tr.NewRecorder(1, 1, "d1.w1")
	t1 := w1.Clock()
	w1.Record(SpanQueuePop, 2, w1.Clock())
	w1.Record(SpanSignalWait, 0, w1.Clock())
	w1.Record(SpanTask, 1, t1)
	root.Record(SpanDispatch, 1, dStart)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceLeg{Name: "golden", Tracer: tr}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export drifted from golden file\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed checks the structural contract on a live
// (non-deterministic) trace: valid JSON, non-negative microsecond
// timestamps, and per-thread monotonic start times.
func TestChromeTraceWellFormed(t *testing.T) {
	tr := NewTracer()
	tr.SpanThreshold = 0
	root := tr.NewRecorder(0, -1, "main")
	d := root.Clock()
	for g := 0; g < 3; g++ {
		rec := tr.NewRecorder(1, g, "lane")
		start := rec.Clock()
		rec.Record(SpanQueuePush, int64(g), rec.Clock())
		rec.Record(SpanTask, int64(g), start)
	}
	root.Record(SpanDispatch, 1, d)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceLeg{Name: "live", Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Tid int      `json:"tid"`
			Ts  *float64 `json:"ts"`
			Dur *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	last := map[int]float64{}
	events := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		events++
		if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur < 0 {
			t.Fatalf("bad complete event: %+v", ev)
		}
		if *ev.Ts < last[ev.Tid] {
			t.Fatalf("timestamps regress on tid %d: %f < %f", ev.Tid, *ev.Ts, last[ev.Tid])
		}
		last[ev.Tid] = *ev.Ts
	}
	if events == 0 {
		t.Fatal("no complete events exported")
	}
}

// TestConcurrentRecorders exercises the only cross-goroutine surface of
// the tracer — recorder creation — under the race detector, with each
// lane recording into its own recorder concurrently.
func TestConcurrentRecorders(t *testing.T) {
	tr := NewTracer()
	tr.SpanThreshold = 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := tr.NewRecorder(1, g, "lane")
			for i := 0; i < 1000; i++ {
				rec.Record(SpanQueuePop, int64(i), rec.Clock())
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, s := range tr.Summaries() {
		total += s.Kinds[SpanQueuePop].Count
	}
	if total != 8000 {
		t.Fatalf("recorded %d pops, want 8000", total)
	}
}

// TestAttributeTraceWithoutDispatches: a run that never dispatched is
// all serial time.
func TestAttributeTraceWithoutDispatches(t *testing.T) {
	tr := NewTracer()
	tr.NewRecorder(0, -1, "main")
	a := AttributeTrace(tr, 5*time.Millisecond, 0, 0, 0)
	if a.SerialMS != a.WallMS || a.WallMS != 5 {
		t.Errorf("serial %.3fms, wall %.3fms, want both 5ms", a.SerialMS, a.WallMS)
	}
	if a.RunCritMS != 0 || a.BlockedCritMS != 0 || a.OverheadMS != 0 || a.EffLanes != 1 {
		t.Errorf("dispatch terms on a dispatch-free run: %+v", a)
	}
}
