package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	"noelle/internal/interp"
)

// fuzzMaxFrame bounds the frames FuzzRequest reads, so no input can make
// ReadFrame allocate more than this however large a length it claims.
const fuzzMaxFrame = 1 << 16

// FuzzRequest feeds the daemon's request path arbitrary bytes: one frame
// read under a bounded limit, the request JSON decode, and the mapping of
// a run request's options onto tool.Options. Nothing may panic; a length
// prefix over the limit must be refused as ErrFrameTooLarge; an accepted
// mapping must carry the wire settings into the one interp.ExecConfig
// with a known engine, and a refused one must name an unknown engine.
// Committed seeds (testdata/fuzz/FuzzRequest): a valid run request, a
// frame over the limit, a truncated frame, and a request with a bad
// engine.
func FuzzRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), fuzzMaxFrame)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > fuzzMaxFrame && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("length prefix %d over the limit: ReadFrame error %v", binary.BigEndian.Uint32(data), err)
		}
		if err != nil {
			return
		}
		var req Request
		if json.Unmarshal(payload, &req) != nil || req.Run == nil {
			return
		}
		requestKey(req.Run)
		o := req.Run.Opts
		topts, err := o.toolOptions()
		if _, perr := interp.ParseEngine(o.Engine); (err == nil) != (perr == nil) {
			t.Fatalf("engine %q: mapping error %v, ParseEngine error %v", o.Engine, err, perr)
		}
		if err != nil {
			return
		}
		want := interp.ExecConfig{Eng: interp.Engine(o.Engine), SeqDispatch: o.SeqDispatch, DispatchWorkers: o.DispatchWorkers}
		if topts.ExecConfig != want {
			t.Fatalf("options %+v mapped onto %+v, want %+v", o, topts.ExecConfig, want)
		}
		if topts.Budget != o.Budget || topts.Optimize != o.Optimize || topts.PrecomputeWorkers != o.PrecomputeWorkers ||
			topts.ExecutePlans != o.ExecutePlans || topts.VerifyTier != o.VerifyTier {
			t.Fatalf("options %+v mapped onto %+v", o, topts)
		}
	})
}
