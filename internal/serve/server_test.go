package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/obs"
	"noelle/internal/passes"
	"noelle/internal/tool"

	// The service resolves pipelines through the tool registry.
	_ "noelle/internal/tools"
)

// serveFixture has hoistable loop invariants and an unreachable
// function, so a licm,dead pipeline does real transforming work.
const serveFixture = `
int table[64];
int scale = 3;

int never_called(int x) { return x * 2; }
int kernel(int n) {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    int k = scale * 7 + 3;
    table[i %% 64] = k + i;
    acc = acc + table[i %% 64];
  }
  return acc;
}
int main() {
  print_i64(kernel(%d) %% 1000);
  return 0;
}`

// moduleText compiles a fixture variant (seed varies the structure so
// different seeds land in different sessions) to textual IR.
func moduleText(t *testing.T, seed int) string {
	t.Helper()
	m, err := minic.Compile("serve_test", fmt.Sprintf(serveFixture, seed))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return ir.Print(m)
}

// startServer runs a Server over a loopback listener and returns a
// dialer. Cleanup drains it.
func startServer(t *testing.T, cfg Config) (*Server, func() *Client) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, func() *Client {
		c, err := Dial("tcp:" + addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

func runReq(module string, tools ...string) *RunRequest {
	return &RunRequest{Module: module, Tools: tools, Opts: DefaultRunOptions()}
}

// renderRun executes a request and renders its reports the way the CLI
// would, failing on a non-OK status.
func renderRun(t *testing.T, c *Client, req *RunRequest) (string, *Done) {
	t.Helper()
	var buf bytes.Buffer
	done, err := c.Run(req, func(msg ReportMsg) { msg.ToReport().Fprint(&buf) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if done.Status != StatusOK {
		t.Fatalf("run status %q: %s", done.Status, done.Error)
	}
	return buf.String(), done
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s stuck at %d, want >= %d", name, reg.Counter(name), want)
}

// TestWarmSessionByteIdenticalReports: the second identical request hits
// the resident session, runs over a clone of the pristine module (the
// pipeline transforms), and must render byte-identically to the cold run.
func TestWarmSessionByteIdenticalReports(t *testing.T) {
	reg := obs.NewRegistry()
	_, dial := startServer(t, Config{Workers: 2, Registry: reg})
	c := dial()
	mod := moduleText(t, 300)

	cold, d1 := renderRun(t, c, runReq(mod, "licm", "dead"))
	if d1.SessionHit {
		t.Error("first request reported a session hit")
	}
	if d1.VerifierStats == "" {
		t.Error("transforming pipeline reported no verifier stats")
	}
	warm, d2 := renderRun(t, c, runReq(mod, "licm", "dead"))
	if !d2.SessionHit {
		t.Error("second request missed the session")
	}
	if cold != warm {
		t.Errorf("warm reports differ from cold:\ncold:\n%swarm:\n%s", cold, warm)
	}
	if !strings.Contains(cold, "licm") || !strings.Contains(cold, "dead") {
		t.Errorf("reports missing stages:\n%s", cold)
	}
	if reg.Counter("serve.session.hits") == 0 {
		t.Error("no session hits recorded")
	}

	// A read-only pipeline runs on the session's own warm manager, where
	// every loop bundle is a cache hit the second time: both answers must
	// still byte-match a cold in-process run, the "abstractions
	// requested" line included.
	parsed, err := irtext.Parse(mod)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultRunOptions()
	topts, err := opts.toolOptions()
	if err != nil {
		t.Fatal(err)
	}
	reps, _, err := tool.RunPipeline(context.Background(), core.New(parsed, opts.coreOptions()), []string{"perspective"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range reps {
		r.Fprint(&want)
	}
	if !strings.Contains(want.String(), "abstractions requested") {
		t.Fatalf("cold rendering has no request line:\n%s", want.String())
	}
	for _, pass := range []string{"first", "warm"} {
		got, _ := renderRun(t, c, runReq(mod, "perspective"))
		if got != want.String() {
			t.Errorf("%s daemon perspective report differs from a cold tool.RunPipeline:\ndaemon:\n%scold:\n%s", pass, got, want.String())
		}
	}
}

// TestStructurallyIdenticalTextSharesSession: textually different but
// structurally identical module text converges on one warm session via
// the module fingerprint.
func TestStructurallyIdenticalTextSharesSession(t *testing.T) {
	_, dial := startServer(t, Config{Workers: 1})
	c := dial()
	mod := moduleText(t, 300)

	_, d1 := renderRun(t, c, runReq(mod, "perspective"))
	if d1.SessionHit {
		t.Fatal("first request hit")
	}
	_, d2 := renderRun(t, c, runReq(mod+"\n", "perspective"))
	if !d2.SessionHit {
		t.Error("re-spelled module text missed the structural session")
	}
}

// TestSingleFlightCoalescing holds the leader in the worker while N
// identical requests pile on, then releases it: every follower must
// replay the leader's reports and done frame, marked Coalesced.
func TestSingleFlightCoalescing(t *testing.T) {
	const followers = 4
	reg := obs.NewRegistry()
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	srv, dial := startServer(t, Config{Workers: 2, QueueDepth: 8, Registry: reg})
	srv.testHookRunning = func(string) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-release
	}
	mod := moduleText(t, 300)
	req := runReq(mod, "licm", "dead")

	type outcome struct {
		rendered string
		done     *Done
	}
	results := make(chan outcome, followers+1)
	runOne := func() {
		c := dial()
		var buf bytes.Buffer
		done, err := c.Run(req, func(msg ReportMsg) { msg.ToReport().Fprint(&buf) })
		if err != nil {
			t.Errorf("run: %v", err)
			results <- outcome{}
			return
		}
		results <- outcome{buf.String(), done}
	}

	go runOne() // leader
	<-running   // leader is executing and held
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); runOne() }()
	}
	// Followers register in their flight at request arrival; wait until
	// all joined before releasing the leader, so coalescing is certain.
	waitCounter(t, reg, "serve.coalesced", followers)
	close(release)
	wg.Wait()

	coalesced := 0
	for i := 0; i < followers+1; i++ {
		o := <-results
		if o.done == nil {
			t.Fatal("missing outcome")
		}
		if o.done.Status != StatusOK {
			t.Fatalf("status %q: %s", o.done.Status, o.done.Error)
		}
		if o.done.Coalesced {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Errorf("%d coalesced responses, want %d", coalesced, followers)
	}
	// One pipeline execution total: the leader's.
	if got := reg.Counter("serve.session.misses"); got != 1 {
		t.Errorf("%d session misses, want 1 (followers must not execute)", got)
	}
}

// TestCoalescedReportsMatchLeader re-runs a coalesce round and checks
// follower renderings byte-match the leader's.
func TestCoalescedReportsMatchLeader(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	srv, dial := startServer(t, Config{Workers: 1, QueueDepth: 4, Registry: reg})
	srv.testHookRunning = func(string) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-release
	}
	req := runReq(moduleText(t, 300), "licm", "dead")

	render := make(chan string, 2)
	coal := make(chan bool, 2)
	runOne := func() {
		c := dial()
		var buf bytes.Buffer
		done, err := c.Run(req, func(msg ReportMsg) { msg.ToReport().Fprint(&buf) })
		if err != nil {
			t.Errorf("run: %v", err)
		}
		render <- buf.String()
		coal <- done != nil && done.Coalesced
	}
	go runOne()
	<-running
	go runOne()
	waitCounter(t, reg, "serve.coalesced", 1)
	close(release)
	a, b := <-render, <-render
	ca, cb := <-coal, <-coal
	if a != b {
		t.Errorf("follower rendering differs from leader:\n%s\nvs:\n%s", a, b)
	}
	if ca == cb {
		t.Errorf("expected exactly one coalesced response (got %v, %v)", ca, cb)
	}
	if a == "" {
		t.Error("empty report rendering")
	}
}

// TestBackpressureSaturated: with one busy worker and a one-slot queue,
// a third distinct request must fast-fail retryable instead of queueing.
func TestBackpressureSaturated(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	srv, dial := startServer(t, Config{Workers: 1, QueueDepth: 1, Registry: reg})
	srv.testHookRunning = func(string) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-release
	}

	okDone := make(chan *Done, 2)
	runAsync := func(seed int) {
		c := dial()
		done, err := c.Run(runReq(moduleText(t, seed), "perspective"), nil)
		if err != nil {
			t.Errorf("run: %v", err)
			okDone <- nil
			return
		}
		okDone <- done
	}
	go runAsync(100) // occupies the worker
	<-running
	go runAsync(200) // occupies the queue slot
	waitQueueDepth(t, reg, 1)

	c := dial()
	done, err := c.Run(runReq(moduleText(t, 300), "perspective"), nil)
	if err != nil {
		t.Fatalf("saturated run: %v", err)
	}
	if done.Status != StatusSaturated || !done.Retryable {
		t.Fatalf("got status %q retryable=%v, want saturated+retryable", done.Status, done.Retryable)
	}
	if got := reg.Counter("serve.rejected.saturated"); got != 1 {
		t.Errorf("saturated counter = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if d := <-okDone; d == nil || d.Status != StatusOK {
			t.Errorf("queued request outcome: %+v", d)
		}
	}
}

// TestRunRetrySaturatedEventuallySucceeds: a saturated done frame leaves
// the connection at a request boundary, so a client that resubmits on
// the same connection once the queue drains is served. The test hook
// holds the only worker while the one-slot queue is full, so the first
// attempt sheds; releasing the worker and waiting for the queued job to
// start frees the slot for the resubmission. No wall-clock sleeping
// decides the outcome.
func TestRunRetrySaturatedEventuallySucceeds(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	firstRunning := make(chan struct{}, 1)
	laterRunning := make(chan struct{}, 4)
	srv, dial := startServer(t, Config{Workers: 1, QueueDepth: 1, Registry: reg})
	first := true
	srv.testHookRunning = func(string) {
		if first {
			first = false
			firstRunning <- struct{}{}
			<-release
			return
		}
		select {
		case laterRunning <- struct{}{}:
		default:
		}
	}

	okDone := make(chan *Done, 2)
	runAsync := func(seed int) {
		c := dial()
		done, err := c.Run(runReq(moduleText(t, seed), "perspective"), nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		okDone <- done
	}
	go runAsync(100) // occupies the worker, held by the hook
	<-firstRunning
	go runAsync(200) // occupies the only queue slot
	waitQueueDepth(t, reg, 1)

	c := dial()
	req := runReq(moduleText(t, 300), "perspective")
	done, err := c.Run(req, nil)
	if err != nil {
		t.Fatalf("first attempt: %v", err)
	}
	if done.Status != StatusSaturated || !done.Retryable {
		t.Fatalf("first attempt: status %q retryable=%v, want saturated+retryable", done.Status, done.Retryable)
	}

	close(release) // worker finishes, dequeues the queued job
	<-laterRunning // queued job running: the slot is free now
	done, err = c.Run(req, nil)
	if err != nil {
		t.Fatalf("resubmit after saturated: %v", err)
	}
	if done.Status != StatusOK {
		t.Fatalf("resubmit after saturated: status %q (%s), want ok", done.Status, done.Error)
	}
	if got := reg.Counter("serve.rejected.saturated"); got != 1 {
		t.Errorf("saturated counter = %d, want 1 (one shed attempt)", got)
	}
	for i := 0; i < 2; i++ {
		if d := <-okDone; d == nil || d.Status != StatusOK {
			t.Errorf("background request outcome: %+v", d)
		}
	}
}

// waitQueueDepth polls the queue-depth gauge through the stats-payload
// parser the CLI shares (gauges only appear in the rendered registry).
func waitQueueDepth(t *testing.T, reg *obs.Registry, want int64) {
	t.Helper()
	depth := func() int64 {
		p := StatsPayload{Metrics: reg.Format()}
		return p.Counter("serve.queue.depth")
	}
	deadline := time.Now().Add(10 * time.Second)
	for depth() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if depth() < want {
		t.Fatalf("queue depth never reached %d", want)
	}
}

// TestGracefulDrainOrdering: a request admitted before shutdown finishes
// and is answered; a request arriving during the drain is refused with a
// retryable draining status; Shutdown returns only after both.
func TestGracefulDrainOrdering(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	srv := New(Config{Workers: 1, QueueDepth: 4, Registry: reg})
	srv.testHookRunning = func(string) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	dial := func() *Client {
		c, err := Dial("tcp:" + addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}
	inflight := dial()
	defer inflight.Close()
	late := dial()
	defer late.Close()

	inflightDone := make(chan *Done, 1)
	go func() {
		d, err := inflight.Run(runReq(moduleText(t, 300), "perspective"), nil)
		if err != nil {
			t.Errorf("inflight run: %v", err)
		}
		inflightDone <- d
	}()
	<-running

	shutdownRet := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		close(shutdownRet)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.isDraining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !srv.isDraining() {
		t.Fatal("server never started draining")
	}

	d, err := late.Run(runReq(moduleText(t, 400), "perspective"), nil)
	if err != nil {
		t.Fatalf("late run: %v", err)
	}
	if d.Status != StatusDraining || !d.Retryable {
		t.Fatalf("late request: status %q retryable=%v, want draining+retryable", d.Status, d.Retryable)
	}
	select {
	case <-shutdownRet:
		t.Fatal("Shutdown returned while a request was in flight")
	default:
	}

	close(release)
	if d := <-inflightDone; d == nil || d.Status != StatusOK {
		t.Errorf("inflight request not answered OK across drain: %+v", d)
	}
	<-shutdownRet
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestSessionLRUEviction: with one resident slot, alternating modules
// evict each other; the service keeps answering correctly throughout.
func TestSessionLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	_, dial := startServer(t, Config{Workers: 1, MaxSessions: 1, Registry: reg})
	c := dial()
	a, b := moduleText(t, 300), moduleText(t, 500)

	for i := 0; i < 2; i++ {
		if _, d := renderRun(t, c, runReq(a, "perspective")); d.SessionHit {
			t.Errorf("round %d: module A unexpectedly warm", i)
		}
		if _, d := renderRun(t, c, runReq(b, "perspective")); d.SessionHit {
			t.Errorf("round %d: module B unexpectedly warm", i)
		}
	}
	if got := reg.Counter("serve.session.evictions"); got < 3 {
		t.Errorf("evictions = %d, want >= 3", got)
	}
}

// TestRunErrorsSurface: unknown tools and malformed modules answer an
// error done frame; the connection stays usable.
func TestRunErrorsSurface(t *testing.T) {
	_, dial := startServer(t, Config{Workers: 1})
	c := dial()
	mod := moduleText(t, 300)

	d, err := c.Run(runReq(mod, "no-such-tool"), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.Status != StatusError || d.Retryable {
		t.Fatalf("unknown tool: status %q retryable=%v", d.Status, d.Retryable)
	}
	d, err = c.Run(runReq("not ir at all {", "licm"), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.Status != StatusError {
		t.Fatalf("malformed module: status %q", d.Status)
	}
	// Same connection still works.
	if _, d := renderRun(t, c, runReq(mod, "perspective")); d == nil {
		t.Fatal("connection unusable after errors")
	}
}

// TestRunRefusesCoreCounts: a run request whose opts.cores is outside
// [1, core.MaxCores] fails with StatusError, and the daemon keeps serving
// (auto's schedules divide by the core count).
func TestRunRefusesCoreCounts(t *testing.T) {
	_, dial := startServer(t, Config{Workers: 1})
	c := dial()
	mod := moduleText(t, 300)
	for _, cores := range []int{0, -1, core.MaxCores + 1} {
		req := runReq(mod, "auto")
		req.Opts.Cores, req.Opts.ExecutePlans = cores, true
		d, err := c.Run(req, nil)
		if err != nil {
			t.Fatalf("cores %d: run: %v", cores, err)
		}
		if d.Status != StatusError || !strings.Contains(d.Error, "cores") {
			t.Errorf("cores %d: status %q (%s), want the core count refused", cores, d.Status, d.Error)
		}
	}
	if _, d := renderRun(t, c, runReq(mod, "auto")); d == nil {
		t.Fatal("daemon unusable after refusing core counts")
	}
}

// TestRunRefusesUnknownEngine: an engine the interpreter does not know
// fails the request with StatusError before anything runs, and the
// daemon keeps serving.
func TestRunRefusesUnknownEngine(t *testing.T) {
	_, dial := startServer(t, Config{Workers: 1})
	c := dial()
	mod := moduleText(t, 300)
	req := runReq(mod, "carat")
	req.Opts.Engine = "bogus"
	d, err := c.Run(req, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.Status != StatusError || !strings.Contains(d.Error, "bogus") {
		t.Errorf("engine bogus: status %q (%s), want the engine refused", d.Status, d.Error)
	}
	if _, d := renderRun(t, c, runReq(mod, "carat")); d == nil {
		t.Fatal("daemon unusable after refusing an engine")
	}
}

// TestHugePrecomputeWorkers: a request asking for ten million precompute
// workers is served (the pool never outnumbers the module's functions),
// and so is the next request.
func TestHugePrecomputeWorkers(t *testing.T) {
	_, dial := startServer(t, Config{Workers: 1})
	c := dial()
	mod := moduleText(t, 300)
	req := runReq(mod, "perspective")
	req.Opts.PrecomputeWorkers = 10_000_000
	renderRun(t, c, req)
	renderRun(t, c, runReq(mod, "licm"))
}

// TestWantIRAndStats: WantIR returns the transformed module; the stats
// request reflects the traffic.
func TestWantIRAndStats(t *testing.T) {
	_, dial := startServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	c := dial()
	mod := moduleText(t, 300)

	req := runReq(mod, "licm", "dead")
	req.WantIR = true
	_, d := renderRun(t, c, req)
	if d.IR == "" {
		t.Fatal("WantIR returned no module text")
	}
	if strings.Contains(d.IR, "never_called") {
		t.Error("dead did not delete @never_called from the returned IR")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", st.Sessions)
	}
	if st.Counter("serve.requests.run") != 1 {
		t.Errorf("run counter = %d, want 1", st.Counter("serve.requests.run"))
	}
	if len(st.Stores) != 1 {
		t.Errorf("store snapshots = %d, want 1", len(st.Stores))
	}
}
