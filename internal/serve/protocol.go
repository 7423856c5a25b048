// Package serve is NOELLE's service plane: a long-running compile
// daemon (cmd/noelle-serve) that accepts concurrent analyze / transform
// / execute requests over a length-prefixed protocol and serves them
// from one warm process — shared persistent abstraction stores
// (internal/abscache), per-module sessions reused by structural
// fingerprint, single-flight coalescing of identical in-flight requests,
// an LRU over resident sessions, and a bounded worker pool that
// fast-fails with a retryable status instead of queueing unboundedly.
//
// The wire format is deliberately small: each frame is a 4-byte
// big-endian payload length followed by a JSON message. A connection
// carries a sequence of requests; a run request answers with zero or
// more "report" frames (streamed as pipeline stages finish) and exactly
// one "done" frame. Everything a client needs lives in Client.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"noelle/internal/abscache"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/tool"
)

// MaxFrameBytes is the default bound on one frame's payload. Modules are
// shipped as textual IR inside a JSON string, so frames are large-ish by
// design, but a length prefix beyond this is a protocol violation (or a
// stray client), not a workload — the reader refuses it instead of
// allocating.
const MaxFrameBytes = 64 << 20

// ErrFrameTooLarge is returned by ReadFrame for a length prefix beyond
// the limit. The connection is unrecoverable after it: the stream offset
// no longer points at a frame boundary.
var ErrFrameTooLarge = errors.New("serve: frame exceeds size limit")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, enforcing max (0 selects MaxFrameBytes). A
// stream that ends mid-header reads as io.EOF only when no header byte
// arrived (a clean close between frames); any partial frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// Request types.
const (
	TypeRun      = "run"      // run a tool pipeline over a module
	TypeStats    = "stats"    // service counters + store stats snapshot
	TypePing     = "ping"     // liveness probe
	TypeShutdown = "shutdown" // begin graceful drain, then exit
)

// Response types.
const (
	TypeReport = "report" // one streamed tool report
	TypeDone   = "done"   // terminal frame of a run (or shutdown ack)
	TypePong   = "pong"
)

// Done statuses.
const (
	StatusOK        = "ok"
	StatusError     = "error"     // the pipeline itself failed
	StatusSaturated = "saturated" // queue full — retryable fast-fail
	StatusDraining  = "draining"  // server shutting down — retryable elsewhere
)

// Request is the client→server envelope.
type Request struct {
	Type string      `json:"type"`
	Run  *RunRequest `json:"run,omitempty"`
}

// RunRequest asks the service to run a tool pipeline over a module.
type RunRequest struct {
	// Module is the textual IR (.nir) of the whole program.
	Module string `json:"module"`
	// Tools is the pipeline, in stage order (the noelle-load -tools list).
	Tools []string `json:"tools"`
	// Opts carries the per-invocation knobs. Zero-valued fields mean the
	// zero value, not the default — clients start from DefaultRunOptions.
	Opts RunOptions `json:"opts"`
	// WantIR asks for the (possibly transformed) module text in the done
	// frame. Off by default: most clients only want reports, and modules
	// are the big payloads.
	WantIR bool `json:"want_ir,omitempty"`
}

// RunOptions is the JSON projection of the manager and tool knobs a
// request may set — the same surface noelle-load exposes as flags. Its
// execution settings are wire names only: toolOptions maps them onto
// the one interp.ExecConfig.
type RunOptions struct {
	Budget            int64   `json:"budget"`
	Optimize          bool    `json:"optimize"`
	PrecomputeWorkers int     `json:"precompute_workers"`
	SeqDispatch       bool    `json:"seq_dispatch"`
	DispatchWorkers   int     `json:"dispatch_workers"`
	ExecutePlans      bool    `json:"exec_plans"`
	VerifyTier        string  `json:"verify_tier"`
	Engine            string  `json:"engine"`
	Cores             int     `json:"cores"`
	MinHotness        float64 `json:"min_hotness"`
}

// DefaultRunOptions mirrors the noelle-load flag defaults, so a daemon
// run and a cold CLI run of the same module and pipeline produce
// byte-identical reports.
func DefaultRunOptions() RunOptions {
	topts := tool.DefaultOptions()
	copts := core.DefaultOptions()
	return RunOptions{
		Budget:            topts.Budget,
		Optimize:          topts.Optimize,
		PrecomputeWorkers: runtime.NumCPU(),
		VerifyTier:        "quick",
		Cores:             copts.Cores,
		MinHotness:        copts.MinHotness,
	}
}

// toolOptions projects the request knobs onto tool.Options, refusing an
// engine the interpreter does not know.
func (o RunOptions) toolOptions() (tool.Options, error) {
	eng, err := interp.ParseEngine(o.Engine)
	if err != nil {
		return tool.Options{}, err
	}
	return tool.Options{
		Budget:            o.Budget,
		Optimize:          o.Optimize,
		PrecomputeWorkers: o.PrecomputeWorkers,
		ExecutePlans:      o.ExecutePlans,
		VerifyTier:        o.VerifyTier,
		ExecConfig: interp.ExecConfig{
			Eng:             eng,
			SeqDispatch:     o.SeqDispatch,
			DispatchWorkers: o.DispatchWorkers,
		},
	}, nil
}

// coreOptions projects the request knobs onto the manager options a
// session is keyed by.
func (o RunOptions) coreOptions() core.Options {
	return core.Options{Cores: o.Cores, MinHotness: o.MinHotness}
}

// sessionKeyPart digests the manager-shaping knobs: two requests whose
// core options differ must not share a session's manager.
func (o RunOptions) sessionKeyPart() string {
	return fmt.Sprintf("c%d|h%g", o.Cores, o.MinHotness)
}

// Response is the server→client envelope.
type Response struct {
	Type   string        `json:"type"`
	Report *ReportMsg    `json:"report,omitempty"`
	Done   *Done         `json:"done,omitempty"`
	Stats  *StatsPayload `json:"stats,omitempty"`
}

// ReportMsg is tool.Report on the wire.
type ReportMsg struct {
	Tool         string           `json:"tool"`
	Summary      string           `json:"summary"`
	Metrics      map[string]int64 `json:"metrics,omitempty"`
	Detail       []string         `json:"detail,omitempty"`
	Abstractions []string         `json:"abstractions"`
}

// reportMsg converts a tool report for the wire.
func reportMsg(r tool.Report) ReportMsg {
	msg := ReportMsg{Tool: r.Tool, Summary: r.Summary, Detail: r.Detail, Abstractions: []string{}}
	if len(r.Metrics) > 0 {
		msg.Metrics = r.Metrics
	}
	for _, a := range r.Abstractions {
		msg.Abstractions = append(msg.Abstractions, string(a))
	}
	return msg
}

// ToReport reconstructs the tool.Report (for rendering via
// Report.Fprint — byte-identical to noelle-load's stderr layout).
func (m ReportMsg) ToReport() tool.Report {
	rep := tool.Report{Tool: m.Tool, Summary: m.Summary, Detail: m.Detail, Metrics: m.Metrics}
	rep.Abstractions = make([]core.Abstraction, 0, len(m.Abstractions))
	for _, a := range m.Abstractions {
		rep.Abstractions = append(rep.Abstractions, core.Abstraction(a))
	}
	return rep
}

// Done is the terminal frame of a run request.
type Done struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Retryable marks load-shedding outcomes (saturated, draining): the
	// request was never attempted and may be resent, here or elsewhere.
	Retryable bool `json:"retryable,omitempty"`
	// VerifierStats is the rendered static-verifier footer ("" when no
	// transforming stage ran) — the same line noelle-load prints.
	VerifierStats string `json:"verifier_stats,omitempty"`
	// IR is the resulting module text (only when the request set WantIR).
	IR string `json:"ir,omitempty"`
	// SessionHit reports that the module was served by a resident warm
	// session rather than a fresh parse.
	SessionHit bool `json:"session_hit,omitempty"`
	// Coalesced reports that this response was produced by another
	// client's identical in-flight request (single-flight follower).
	Coalesced bool `json:"coalesced,omitempty"`
}

// StatsPayload answers a stats request: the live service metrics
// registry rendered through obs.Registry.Format, the resident session
// count, and per-store traffic snapshots keyed by module namespace
// (the abscache.Stats JSON codec `noelle-cache stats -json` shares).
type StatsPayload struct {
	Metrics  string                    `json:"metrics"`
	Sessions int                       `json:"sessions"`
	Stores   map[string]abscache.Stats `json:"stores,omitempty"`
}

// Counter extracts one counter or gauge value from the rendered metrics
// ("name value" lines, the obs.Registry.Format layout). Missing names
// read as 0 — the registry only renders names that were touched.
func (p *StatsPayload) Counter(name string) int64 {
	for _, line := range strings.Split(p.Metrics, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return 0
}
