// Execution tiers. The interpreter has two engines over the same shared
// image, extern registry, and communication runtime:
//
//   - the walker (interp.go): the reference semantics. It resolves
//     operands through a map-based frame, fires the observation hooks,
//     and is the differential oracle every other execution mode is
//     checked against (exactly as parallel dispatch is checked against
//     the -seq fallback).
//   - the compiled tier (compile.go/compiled.go): the default fast path.
//     Each function is lowered once to direct-threaded ops with operands
//     pre-resolved to frame slots, phis to edge moves, and the hot
//     compare-branch / load-op-store idioms to superinstructions. It
//     also serves observation requests — a profile's edge counters, one
//     loop's per-iteration costs — by binding probe ops into the streams
//     of the context that asked (observe.go).
//
// Both engines must be observationally identical — same Output bytes,
// Steps, Cycles, extern counters, memory fingerprint — on every
// well-formed module (interptest.AssertTiersAgree enforces this on the
// bundled benchmarks). Hooked contexts always run on the walker: hooks
// observe the canonical per-instruction event order, which the compiled
// tier does not reproduce. The product installs none; the profiler's and
// the cost attribution's test suites do, for their walker references.

package interp

import (
	"fmt"
	"os"
	"sync"
)

// Engine names an execution tier of the interpreter.
type Engine string

// The two execution tiers.
const (
	// EngineWalker is the instruction-walking reference interpreter —
	// the differential oracle, and the only tier that fires hooks.
	EngineWalker Engine = "walker"
	// EngineCompiled executes pre-compiled direct-threaded ops — the
	// default fast path.
	EngineCompiled Engine = "compiled"
)

// ParseEngine resolves a CLI -engine value. The empty string selects the
// process default (DefaultEngine).
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "":
		return "", nil
	case EngineWalker:
		return EngineWalker, nil
	case EngineCompiled:
		return EngineCompiled, nil
	}
	return "", fmt.Errorf("interp: unknown engine %q (have walker, compiled)", s)
}

var (
	defaultEngineOnce sync.Once
	defaultEngineVal  Engine
)

// DefaultEngine returns the process-wide default tier: compiled, unless
// the NOELLE_ENGINE environment variable selects the walker. The env
// knob is what CI's tier-diff step uses to run whole test suites on
// either tier without threading a flag through every harness.
func DefaultEngine() Engine {
	defaultEngineOnce.Do(func() {
		if eng, err := ParseEngine(os.Getenv("NOELLE_ENGINE")); err == nil && eng != "" {
			defaultEngineVal = eng
			return
		}
		defaultEngineVal = EngineCompiled
	})
	return defaultEngineVal
}

// selectEngine resolves the tier the next defined-function Call will run
// on: hooks force the walker (canonical event order), an observation
// request the compiled tier (the only one that serves it), an explicit
// Eng wins otherwise, and everything else takes the process default.
func (it *Interp) selectEngine() Engine {
	if it.hooked() {
		return EngineWalker
	}
	if it.observing() {
		return EngineCompiled
	}
	switch it.Eng {
	case EngineWalker, EngineCompiled:
		return it.Eng
	}
	return DefaultEngine()
}

// Engine reports the execution tier this context actually ran defined
// functions on — recorded at the last Call — or, before any call, the
// tier the current configuration selects. BENCH artifacts record it so
// every measured row is self-describing.
func (it *Interp) Engine() Engine {
	if it.engineUsed != "" {
		return it.engineUsed
	}
	return it.selectEngine()
}

// Precompile lowers every defined function of the module on the compiled
// tier under this context's cost model, as each one's first call would,
// and returns the first rejection. The bodies stay cached on the image.
func (it *Interp) Precompile() error {
	var first error
	for _, f := range it.img.fnTable {
		if f.IsDeclaration() {
			continue
		}
		if _, err := it.img.compiled(f, it.Cost, probes{}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rejected returns the names of the functions the compiled tier has
// rejected on this context's image so far, in module order. A plain call
// of one runs on the walker (Call) whatever engine the context selects, so
// a caller that reports the engine reports these with it.
func (it *Interp) Rejected() []string {
	var names []string
	for _, f := range it.img.fnTable {
		if v, ok := it.img.progs.Load(f); ok {
			if _, rejected := v.(error); rejected {
				names = append(names, f.Nam)
			}
		}
	}
	return names
}
