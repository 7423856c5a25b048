package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"noelle/internal/abscache"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/obs"
	"noelle/internal/tool"
)

// Config shapes a Server.
type Config struct {
	// Workers is the execution pool size (<=0 selects 2: requests run
	// real pipelines, so the pool should roughly match the cores the
	// daemon may burn, not the client count).
	Workers int
	// QueueDepth bounds how many accepted requests may wait for a worker
	// (<=0 selects 64). A full queue fast-fails new runs with a
	// retryable "saturated" status instead of building an unbounded
	// backlog — the client decides whether to retry, back off, or go
	// elsewhere.
	QueueDepth int
	// MaxSessions caps resident warm modules; the least recently used
	// session is dropped at admission (<=0 selects 16).
	MaxSessions int
	// CacheDir roots the shared persistent abstraction stores ("" runs
	// memory-only: sessions still stay warm, nothing survives restart).
	CacheDir string
	// MaxFrame bounds one protocol frame (0 = MaxFrameBytes).
	MaxFrame int
	// Registry receives the service metrics (nil allocates a private
	// one); read it back via Server.Registry.
	Registry *obs.Registry
}

// Server is the compile service: one warm abstraction state shared by
// every connection, behind a bounded worker pool.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	sessions *sessions
	stores   *storePool

	jobs chan *job

	flightMu sync.Mutex
	flights  map[string]*flight

	// drainMu gates dispatch admission against shutdown: once draining
	// flips, no new dispatch can register, so jobWG.Wait() in Serve
	// cannot race an Add (the classic guarded-WaitGroup drain pattern).
	drainMu  sync.RWMutex
	draining bool
	jobWG    sync.WaitGroup

	workerWG sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]bool

	baseCtx  context.Context
	cancel   context.CancelFunc
	shutOnce sync.Once
	shutCh   chan struct{}
	doneCh   chan struct{}

	// testHookRunning, when set, is called by a worker right after it
	// starts executing a run (keyed by the request digest) — tests use
	// it to hold a leader in place while followers and queue pressure
	// build deterministically.
	testHookRunning func(key string)
}

// flight is one in-flight (or just-completed) run shared by every
// client that asked for the byte-identical request while it ran. The
// leader's worker fills reports/result, then closes done; followers
// replay. After completion the flight leaves the map, so later
// identical requests run again (warm, but fresh).
type flight struct {
	done    chan struct{}
	reports []ReportMsg
	result  Done
}

// job is one admitted run waiting for (or on) a worker.
type job struct {
	key      string
	req      *RunRequest
	fl       *flight
	cw       *connWriter
	enqueued time.Time
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 16
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		sessions: newSessions(cfg.MaxSessions, reg),
		jobs:     make(chan *job, cfg.QueueDepth),
		flights:  map[string]*flight{},
		conns:    map[net.Conn]bool{},
		baseCtx:  ctx,
		cancel:   cancel,
		shutCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	if cfg.CacheDir != "" {
		s.stores = newStorePool(cfg.CacheDir)
	}
	return s
}

// Registry returns the service metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Serve accepts connections on ln until Shutdown, then drains: queued
// and running requests finish and their responses are delivered before
// Serve returns. It owns ln and closes it.
func (s *Server) Serve(ln net.Listener) error {
	for w := 0; w < s.cfg.Workers; w++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	go func() {
		<-s.shutCh
		s.drainMu.Lock()
		s.draining = true
		s.drainMu.Unlock()
		ln.Close()
	}()

	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				break
			}
			// A hard accept error still drains what was admitted.
			s.beginShutdown()
			acceptErr = err
			break
		}
		s.trackConn(conn, true)
		go s.handleConn(conn)
	}

	// Drain order: (1) every dispatch that was admitted before draining
	// flipped finishes and writes its response; (2) the worker pool
	// exits; (3) lingering connections (blocked reading their next
	// frame) are closed. Clients therefore never lose a response to an
	// accepted request.
	s.jobWG.Wait()
	close(s.jobs)
	s.workerWG.Wait()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	serr := s.closeStores()
	close(s.doneCh)
	if acceptErr != nil {
		return acceptErr
	}
	return serr
}

// closeStores folds every open store's counters into its on-disk stats
// file (what `noelle-cache stats` reads after the daemon exits).
func (s *Server) closeStores() error { return s.stores.closeAll() }

// Shutdown begins a graceful drain and waits for Serve to finish. If
// ctx expires first, in-flight pipelines are cancelled (they observe it
// at their next stage boundary) and Shutdown keeps waiting.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	select {
	case <-s.doneCh:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-s.doneCh
		return ctx.Err()
	}
}

func (s *Server) beginShutdown() {
	s.shutOnce.Do(func() { close(s.shutCh) })
}

func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// beginDispatch admits one run into the drain group; it fails once
// draining started.
func (s *Server) beginDispatch() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.jobWG.Add(1)
	return true
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[c] = true
	} else {
		delete(s.conns, c)
	}
	s.connMu.Unlock()
}

// connWriter serializes frame writes to one connection. The conn
// goroutine and (for a leader) the executing worker both write; the
// mutex keeps frames whole, and the protocol keeps them ordered because
// the conn goroutine only resumes after the worker's final write.
type connWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func (cw *connWriter) send(resp *Response) error {
	payload, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := WriteFrame(cw.bw, payload); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// handleConn serves one connection: a sequence of requests, each fully
// answered before the next frame is read.
func (s *Server) handleConn(conn net.Conn) {
	defer s.trackConn(conn, false)
	defer conn.Close()
	br := bufio.NewReader(conn)
	cw := &connWriter{bw: bufio.NewWriter(conn)}
	for {
		payload, err := ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			return // EOF, oversized, or torn frame: the stream is done
		}
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			cw.send(&Response{Type: TypeDone, Done: &Done{Status: StatusError, Error: "serve: malformed request: " + err.Error()}})
			return
		}
		switch req.Type {
		case TypePing:
			s.reg.Count("serve.requests.ping", 1)
			cw.send(&Response{Type: TypePong})
		case TypeStats:
			s.reg.Count("serve.requests.stats", 1)
			cw.send(&Response{Type: TypeDone, Done: &Done{Status: StatusOK}, Stats: &StatsPayload{
				Metrics:  s.reg.Format(),
				Sessions: s.sessions.len(),
				Stores:   s.stores.snapshot(),
			}})
		case TypeShutdown:
			s.reg.Count("serve.requests.shutdown", 1)
			cw.send(&Response{Type: TypeDone, Done: &Done{Status: StatusOK}})
			s.beginShutdown()
		case TypeRun:
			if req.Run == nil {
				cw.send(&Response{Type: TypeDone, Done: &Done{Status: StatusError, Error: "serve: run request without body"}})
				return
			}
			s.handleRun(cw, req.Run)
		default:
			cw.send(&Response{Type: TypeDone, Done: &Done{Status: StatusError, Error: fmt.Sprintf("serve: unknown request type %q", req.Type)}})
			return
		}
	}
}

// requestKey digests a run request for single-flight coalescing: only
// byte-identical requests (module text, pipeline, options, WantIR)
// coalesce. Structurally identical modules under different text still
// share a session — they just execute separately.
func requestKey(req *RunRequest) string {
	data, _ := json.Marshal(req)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// handleRun admits one run request: coalesce onto an identical
// in-flight run, or lead a new one through the bounded queue.
func (s *Server) handleRun(cw *connWriter, req *RunRequest) {
	s.reg.Count("serve.requests.run", 1)
	if !s.beginDispatch() {
		s.reg.Count("serve.rejected.draining", 1)
		cw.send(&Response{Type: TypeDone, Done: &Done{Status: StatusDraining, Retryable: true, Error: "serve: draining"}})
		return
	}
	defer s.jobWG.Done()

	start := time.Now()
	key := requestKey(req)

	s.flightMu.Lock()
	if fl, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		// Counted at join (not at delivery) so an operator watching the
		// gauge sees pile-ups while the leader is still running.
		s.reg.Count("serve.coalesced", 1)
		<-fl.done
		for i := range fl.reports {
			cw.send(&Response{Type: TypeReport, Report: &fl.reports[i]})
		}
		d := fl.result
		d.Coalesced = true
		cw.send(&Response{Type: TypeDone, Done: &d})
		s.reg.Observe("serve.latency.run", time.Since(start))
		return
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.flightMu.Unlock()
	s.leadRun(cw, req, key, fl, start)
}

// leadRun enqueues a leader job and waits for its worker to finish
// streaming. A full queue fast-fails instead of blocking: the caller
// (and any follower that joined the flight meanwhile) gets a retryable
// saturated status.
func (s *Server) leadRun(cw *connWriter, req *RunRequest, key string, fl *flight, start time.Time) {
	j := &job{key: key, req: req, fl: fl, cw: cw, enqueued: time.Now()}
	select {
	case s.jobs <- j:
		s.reg.Gauge("serve.queue.depth", int64(len(s.jobs)))
	default:
		s.reg.Count("serve.rejected.saturated", 1)
		d := Done{Status: StatusSaturated, Retryable: true, Error: "serve: worker queue full"}
		s.finishFlight(key, fl, d)
		cw.send(&Response{Type: TypeDone, Done: &d})
	}
	<-fl.done
	// The worker (or the fast-fail above) already streamed this leader's
	// frames; only account latency here.
	s.reg.Observe("serve.latency.run", time.Since(start))
}

// finishFlight publishes the result, retires the flight from the map,
// and wakes every follower. The leader's own done frame is the caller's
// job — the worker's deferred send, or the saturated fast-fail in
// leadRun.
func (s *Server) finishFlight(key string, fl *flight, result Done) {
	fl.result = result
	s.flightMu.Lock()
	if s.flights[key] == fl {
		delete(s.flights, key)
	}
	s.flightMu.Unlock()
	close(fl.done)
}

// worker executes admitted jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.jobs {
		s.reg.Gauge("serve.queue.depth", int64(len(s.jobs)))
		s.reg.Observe("serve.latency.queue_wait", time.Since(j.enqueued))
		s.execute(j)
	}
}

// execute runs one leader job's pipeline and streams its frames.
func (s *Server) execute(j *job) {
	var result Done
	defer func() {
		if r := recover(); r != nil {
			result = Done{Status: StatusError, Error: fmt.Sprintf("serve: pipeline panicked: %v", r)}
			s.reg.Count("serve.errors", 1)
		}
		j.cw.send(&Response{Type: TypeDone, Done: &result})
		s.finishFlight(j.key, j.fl, result)
	}()
	if s.testHookRunning != nil {
		s.testHookRunning(j.key)
	}

	topts, err := j.req.Opts.toolOptions()
	if err != nil {
		result = Done{Status: StatusError, Error: err.Error()}
		return
	}

	// Resolve which manager and module this run gets. Read-only
	// pipelines run on the session's shared warm manager (serialized per
	// session); transforming pipelines clone the pristine module and run
	// over a throwaway manager attached to the same persistent store, so
	// the session never observes mutated IR. The clone has the session's
	// module fingerprint, so its PDGs load warm from records any earlier
	// run of the same module put.
	var (
		n *core.Noelle
		m *ir.Module
	)
	sess, hit, err := s.sessions.acquire(j.req.Module, j.req.Opts, s.openStore)
	if err != nil {
		result = Done{Status: StatusError, Error: err.Error()}
		return
	}
	if pipelineTransforms(j.req.Tools, topts) {
		m = ir.CloneModule(sess.mod)
		n = core.New(m, sess.copt)
		if sess.store != nil {
			n.SetStore(sess.store)
		}
	} else {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		m = sess.mod
		n = sess.mgr
	}

	emit := func(rep tool.Report) {
		msg := reportMsg(rep)
		j.fl.reports = append(j.fl.reports, msg)
		j.cw.send(&Response{Type: TypeReport, Report: &msg})
	}
	_, vstats, err := tool.RunPipelineStream(s.baseCtx, n, j.req.Tools, topts, emit)

	result = Done{Status: StatusOK, SessionHit: hit}
	if vstats.Stages > 0 {
		result.VerifierStats = vstats.String()
	}
	if err != nil {
		result.Status = StatusError
		result.Error = err.Error()
		s.reg.Count("serve.errors", 1)
	} else if j.req.WantIR {
		result.IR = ir.Print(m)
	}
}

// openStore resolves the persistent store namespace for a module (nil
// when the daemon runs memory-only).
func (s *Server) openStore(m *ir.Module) *abscache.Store {
	return s.stores.open(m)
}

// pipelineTransforms reports whether any resolvable stage may mutate
// the module under opts. Unresolvable names answer false — the pipeline
// runner will reject them uniformly before anything runs.
func pipelineTransforms(names []string, opts tool.Options) bool {
	for _, name := range names {
		if t, ok := tool.Lookup(name); ok && tool.TransformsWith(t, opts) {
			return true
		}
	}
	return false
}
