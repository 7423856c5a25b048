package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/serve"
	"noelle/internal/tool"
)

const (
	hotModules = 8
	// freshEvery is the cadence of never-seen modules: request 31, 63, ...
	freshEvery = 32
	// freshPool bounds the schedule: set-up generates this many one-shot
	// modules, enough for more requests than a run's measuring time fits.
	freshPool = 64
	// serveFuncs x serveGlobals is the shape of every module the daemon
	// sees. One shape keeps latency comparable across seeds; the seed
	// picks the constants, so which modules exist and which are hot.
	serveFuncs, serveGlobals = 16, 12
)

var (
	analyzeTools   = []string{"perspective"}
	transformTools = []string{"licm", "dead"}
)

// request is one entry of the serve_closed schedule.
type request struct {
	// Module indexes the hot set, or the one-shot pool when Fresh.
	Module    int
	Fresh     bool
	Transform bool
}

// schedule is the first n requests a seed stands for. Every freshEvery-th
// request names the next never-seen module and the rest draw from the hot
// set; in each group of four, one request at a seeded position runs the
// transforming pipeline and three the read-only one.
func schedule(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	slot := 0
	for i := range out {
		if i%4 == 0 {
			slot = rng.Intn(4)
		}
		out[i].Transform = i%4 == slot
		if i%freshEvery == freshEvery-1 {
			out[i].Fresh, out[i].Module = true, i/freshEvery
		} else {
			out[i].Module = rng.Intn(hotModules)
		}
	}
	return out
}

// moduleSalts draws the distinct constants that tell the seed's modules
// apart: hotModules for the hot set, then freshPool one-shot ones.
func moduleSalts(seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[int]bool{}
	var salts []int
	for len(salts) < hotModules+freshPool {
		if s := 1 + rng.Intn(1_000_000); !seen[s] {
			seen[s] = true
			salts = append(salts, s)
		}
	}
	return salts
}

func serveRunOptions(cores int) serve.RunOptions {
	o := serve.DefaultRunOptions()
	// Each of the daemon's C workers computes on its own goroutine only.
	o.Cores, o.PrecomputeWorkers = cores, 1
	return o
}

// coldReports is the reference for a daemon answer: the same pipeline over
// a fresh parse of the same text on a manager with no store and no
// session, rendered as noelle-load renders reports.
func coldReports(text string, tools []string, cores int) (string, error) {
	m, err := irtext.Parse(text)
	if err != nil {
		return "", err
	}
	ro := serveRunOptions(cores)
	n := core.New(m, core.Options{Cores: ro.Cores, MinHotness: ro.MinHotness})
	reports, _, err := tool.RunPipeline(context.Background(), n, tools, tool.Options{
		Budget: ro.Budget, Optimize: ro.Optimize, PrecomputeWorkers: ro.PrecomputeWorkers, VerifyTier: ro.VerifyTier,
	})
	if err != nil {
		return "", err
	}
	return render(reports), nil
}

// render prints reports as noelle-load does, less the list of abstractions
// requested: that line logs what the manager had to compute, and a warm
// session that already holds the loop bundles asks for fewer (no PDG) than
// a cold run, with the same results.
func render(reports []tool.Report) string {
	var b bytes.Buffer
	for _, rep := range reports {
		rep.Abstractions = nil
		rep.Fprint(&b)
	}
	return b.String()
}

// daemon is an in-process noelle-serve on a loopback port with one client
// connection per closed-loop client.
type daemon struct {
	srv     *serve.Server
	served  chan error
	clients []*serve.Client
}

func startDaemon(cores int, cacheDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.New(serve.Config{Workers: cores, QueueDepth: 128, CacheDir: cacheDir}),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	for i := 0; i < cores; i++ {
		c, err := serve.Dial("tcp:" + ln.Addr().String())
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// stop closes the clients, drains the daemon and waits for it to exit.
func (d *daemon) stop() error {
	for _, c := range d.clients {
		c.Close()
	}
	d.srv.Shutdown(context.Background())
	return <-d.served
}

// ask sends one run request and returns the terminal frame, the rendered
// reports, and the send-to-Done latency.
func ask(c *serve.Client, text string, tools []string, cores int, wantIR bool) (*serve.Done, string, time.Duration, error) {
	var reports []tool.Report
	req := &serve.RunRequest{Module: text, Tools: tools, Opts: serveRunOptions(cores), WantIR: wantIR}
	start := time.Now()
	done, err := c.Run(req, func(m serve.ReportMsg) { reports = append(reports, m.ToReport()) })
	lat := time.Since(start)
	if err != nil {
		return nil, "", lat, err
	}
	if done.Status != serve.StatusOK {
		return done, "", lat, fmt.Errorf("status %s: %s", done.Status, done.Error)
	}
	return done, render(reports), lat, nil
}

// serveState is what serve_closed sets up: the seed's modules as text, a
// running daemon with the hot set resident and both pipelines warm on it,
// and hot module 0 three ways: untransformed, as the daemon transformed
// it, and what it prints on the walker.
type serveState struct {
	hot, fresh []string
	d          *daemon
	orig, low  *ir.Module
	want       expectation
}

func serveSetUpOnce(r *run, cacheDir string) (*serveState, error) {
	st := &serveState{}
	for i, salt := range moduleSalts(r.seed) {
		m, _, err := frontEnd(nil, 0, 0, fmt.Sprintf("serve-%d", salt), wholeSource(serveFuncs, serveGlobals, salt))
		if err != nil {
			return nil, err
		}
		if i < hotModules {
			st.hot = append(st.hot, ir.Print(m))
		} else {
			st.fresh = append(st.fresh, ir.Print(m))
		}
	}
	var err error
	if st.orig, err = irtext.Parse(st.hot[0]); err != nil {
		return nil, err
	}
	e, err := execute(st.orig, r.cores, func(it *interp.Interp) { it.Eng = interp.EngineWalker })
	if err != nil {
		return nil, fmt.Errorf("walker reference: %w", err)
	}
	st.want = expectation{e.output, e.exit}

	if st.d, err = startDaemon(r.cores, cacheDir); err != nil {
		return nil, err
	}
	for i, text := range st.hot {
		c := st.d.clients[i%len(st.d.clients)]
		if _, _, _, err := ask(c, text, analyzeTools, r.cores, false); err != nil {
			st.d.stop()
			return nil, fmt.Errorf("warming hot module %d: %w", i, err)
		}
		done, _, _, err := ask(c, text, transformTools, r.cores, i == 0)
		if err != nil {
			st.d.stop()
			return nil, fmt.Errorf("warming hot module %d: %w", i, err)
		}
		if i == 0 {
			if st.low, err = irtext.Parse(done.IR); err != nil {
				st.d.stop()
				return nil, fmt.Errorf("the daemon's transformed module: %w", err)
			}
		}
	}
	return st, nil
}

// outcome is one answered request of the timed phase.
type outcome struct {
	index     int
	latency   time.Duration
	rendering string
	hit       bool
	err       error
}

func serveWorkload(r *run) error {
	st, err := setUp(r, func() (*serveState, error) { return serveSetUpOnce(r, r.newDir()) },
		func(st *serveState) { st.d.stop() })
	if err != nil {
		return err
	}
	defer func() {
		if st.d != nil {
			st.d.stop()
		}
	}()

	// The timed op is a slice of traffic: C closed-loop clients, each
	// sending its next request when the previous one is answered, taking
	// requests off the one schedule in order for sliceLength. Slices
	// alternate with runs of hot module 0 until the time or the schedule
	// is used up.
	const sliceLength = 300 * time.Millisecond
	sched := schedule(r.seed, freshPool*freshEvery)
	text := func(q request) string {
		if q.Fresh {
			return st.fresh[q.Module]
		}
		return st.hot[q.Module]
	}
	tools := func(q request) []string {
		if q.Transform {
			return transformTools
		}
		return analyzeTools
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	results := make([][]outcome, r.cores)
	var alloc float64
	slices := phase{perRound: 1, floor: 4, op: func(int) (time.Duration, bool) {
		if int(next.Load()) >= len(sched) {
			return 0, false
		}
		start := time.Now()
		deadline := start.Add(sliceLength)
		alloc += allocMB(func() {
			for ci, c := range st.d.clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(deadline) {
						i := int(next.Add(1)) - 1
						if i >= len(sched) {
							return
						}
						id := r.sp.begin("serve.request", 0, i)
						done, rendering, lat, err := ask(c, text(sched[i]), tools(sched[i]), r.cores, false)
						r.sp.end(id)
						o := outcome{index: i, latency: lat, rendering: rendering, err: err}
						if done != nil {
							o.hit = done.SessionHit
						}
						results[ci] = append(results[ci], o)
					}
				}()
			}
			wg.Wait()
		})
		return time.Since(start), true
	}}
	orig := newRuns(r, "original", 30, 30, func() *ir.Module { return st.orig }, st.want, nil, nil)
	low := newRuns(r, "daemon-transformed", 30, 30, func() *ir.Module { return st.low }, st.want, nil, nil)
	r.interleave(&slices, &orig.phase, &low.phase)
	// Check every answer against the cold reference of its module and
	// pipeline, computed once each.
	var all []outcome
	for _, rs := range results {
		all = append(all, rs...)
	}
	type refKey struct {
		module    string
		transform bool
	}
	refs := map[refKey]string{}
	reference := func(q request) (string, error) {
		k := refKey{text(q), q.Transform}
		if ref, ok := refs[k]; ok {
			return ref, nil
		}
		ref, err := coldReports(text(q), tools(q), r.cores)
		refs[k] = ref
		return ref, err
	}

	var lat, hot, fresh, transform []float64
	hits, okCount := 0, 0
	for _, o := range all {
		q := sched[o.index]
		if !r.check(o.err == nil, "request %d: %v", o.index, o.err) {
			continue
		}
		ref, err := reference(q)
		if err != nil {
			return fmt.Errorf("cold reference: %w", err)
		}
		r.check(o.rendering == ref, "request %d: the daemon's reports differ from a cold run", o.index)
		okCount++
		l := ms(o.latency)
		lat = append(lat, l)
		switch {
		case q.Fresh:
			fresh = append(fresh, l)
		case q.Transform:
			transform = append(transform, l)
		default:
			hot = append(hot, l)
		}
		if o.hit {
			hits++
		}
	}
	if okCount == 0 {
		return fmt.Errorf("no request succeeded: %v", r.failures)
	}
	r.set("compile_ms", r.timing("compile_ms", lat))
	r.set("compile_per_s", float64(okCount)/(sum(slices.walls)/1000))
	r.set("compile_alloc_mb", alloc/float64(len(all)))
	if err := reportRuns(r, orig, low); err != nil {
		return err
	}

	if r.traced {
		r.set("serve.req_per_s", r.metrics["compile_per_s"])
		r.set("serve.req_p99_ms", quantile(lat, 0.99))
		r.set("serve.hot_p50_ms", r.timing("serve.hot_p50_ms", hot))
		r.set("serve.fresh_p50_ms", r.timing("serve.fresh_p50_ms", fresh))
		r.set("serve.transform_p50_ms", r.timing("serve.transform_p50_ms", transform))
		r.set("serve.session_hit_ratio", float64(hits)/float64(okCount))
		serveLayers(r, st)
	}
	err = st.d.stop()
	st.d = nil
	r.check(err == nil, "draining the daemon: %v", err)
	return nil
}

// serveLayers reads the daemon's own registry and calls the layers a
// request passes through directly on hot module 0.
func serveLayers(r *run, st *serveState) {
	reg := st.d.srv.Registry()
	wait := reg.Histogram("serve.latency.queue_wait")
	r.set("serve.queue_wait_p50_ms", float64(wait.Quantile(0.50))/1e6)
	r.set("serve.saturated", float64(reg.Counter("serve.rejected.saturated")))
	r.set("serve.coalesced", float64(reg.Counter("serve.coalesced")))

	const roundTrips = 1000
	c := st.d.clients[0]
	d := r.sp.timed("serve.frame_roundtrips", 0, 0, func() {
		for i := 0; i < roundTrips; i++ {
			if _, err := c.Stats(); err != nil {
				r.check(false, "stats round trip %d: %v", i, err)
				return
			}
		}
	})
	r.set("serve.frame_roundtrip_us", float64(d.Microseconds())/roundTrips)

	text := st.hot[0]
	var parsed *ir.Module
	r.set("irtext.parse_ms", medianOf(r, "irtext.parse", 5, func() { parsed, _ = irtext.Parse(text) }))
	r.set("irtext.parse_mb_per_s", float64(len(text))/(1<<20)/(r.metrics["irtext.parse_ms"]/1000))
	r.set("ir.print_ms", medianOf(r, "ir.print", 5, func() { ir.Print(parsed) }))
	r.set("ir.fingerprint_ms", medianOf(r, "ir.fingerprint", 5, func() { ir.ModuleFingerprint(parsed) }))
	r.set("ir.clone_ms", medianOf(r, "ir.clone", 5, func() { ir.CloneModule(parsed) }))
	r.count("ir.instrs_in", int64(st.orig.NumInstrs()))
	r.count("ir.instrs_out", int64(st.low.NumInstrs()))

	// What one request costs with no daemon: the cold reference compile.
	r.set("core.nostore_compile_ms", medianOf(r, "core.nostore_compile", 5, func() {
		_, err := coldReports(text, analyzeTools, r.cores)
		r.check(err == nil, "cold reference: %v", err)
	}))
}
