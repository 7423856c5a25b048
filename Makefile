GO ?= go

.PHONY: build test vet lint loc eval race tier-diff bench bench-cache benchmark benchmark-check benchpair cache-smoke serve-smoke check-docs example-smoke campaign-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static hygiene in one command: vet, formatting drift, and the static
# verifier's own suite (tier staging, the hand-broken corpus, mutation
# tests over real DSWP/HELIX lowerings).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi
	$(GO) test ./internal/ir/ ./internal/irtext/ ./internal/verify/

# The sizes every simplicity entry in CHANGES.md quotes: lines of
# non-test Go outside benchmark/, Table 3's measured NOELLE column (each
# custom tool's implementation without its register.go), and Table 1's
# ENV/T and LB rows — the abstractions the parallelizers are built from,
# so code that moves out of a tool and into them shows up in both tables.
loc:
	@printf 'non-test Go outside benchmark/: %s lines\n' \
		"$$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@$(GO) run ./cmd/noelle-eval -only table3
	@$(GO) run ./cmd/noelle-eval -only table1 | grep -E '^Table 1|\((ENV|LB)\)'

# The published cells a PR can move, printed (CI's test job runs this so
# a moved cell shows in the log): Figure 5 and Section 4.4 as the auto
# driver models them at 2 cores — planner-modeled, lowered loops only,
# not wall-clock — and Table 4's measured usage matrix. About 2 s.
eval:
	$(GO) run ./cmd/noelle-eval -only fig5 -cores 2
	$(GO) run ./cmd/noelle-eval -only spec -cores 2
	$(GO) run ./cmd/noelle-eval -only table4

# The manager's and the parallel runtime's concurrency guarantees are
# only meaningful under -race; run the whole tree (the speedup
# assertion is skipped — -race skews wall-clock ratios).
race:
	NOELLE_SKIP_SPEEDUP_TEST=1 $(GO) test -race ./...

# Execution-tier differential: the interpreter and communication-runtime
# suites (dispatch, queue/signal pipelines, traced runs) must pass with
# either engine forced process-wide, under -race — the walker is the
# reference oracle, and the compiled tier has to be behaviourally
# indistinguishable from it even when every test in those suites runs
# on it. The profiler and machine suites ride along: profiles and loop
# costs are counted by probe ops of the compiled tier whichever engine
# is forced, and held to their hooked-walker references. The final
# non-race run enforces the compiled tier's >= 2x wall-clock bar over
# the walker on bench.WholeProgram (TestCompiledTierSpeedup; its noise
# margin is documented at the assertion) plus the byte-identical
# corpus/pipeline agreement suite (TestTiersAgreeAtEveryBudget among it:
# one small program per shape of op segment, run at every step budget
# from 1 to one past its total, so the budget cuts every segment at
# every op), the compiler against the one it replaced
# (TestCompileMatchesReference: the same compiled body, plain, counting
# and loop-observing, for every function of the corpus, the whole
# program, the synthetic programs' lowerings and 150 generated programs)
# and, by name, the two observation
# differentials (compiled Collect and compiled loop-cost attribution,
# each loop alone and every loop of a module in one run, against the
# walker on the corpus, the synthetic programs, their lowerings and 150
# generated programs). The memory rides along by name too: the page
# table against the sharded page map and 8-slot cache it replaced, on
# one seeded random sequence of reads, writes and bulk runs (same values,
# same fingerprint), goroutines racing to install one fresh page in
# one fresh leaf (every write survives), and a callee that allocas 800 KB
# called 30,000 times, from main and from a DOALL-lowered loop's lanes
# (its frames pop, so the program prints its sum), under -race. The alias package
# rides along the same way: its worklist solver and bottom-up summaries
# are held to the round-robin reference on those subjects before and
# after `auto` lowered them, and four concurrent PDG builds share one PointsTo. So does
# the loop bundle: every query of every loop's bundle against the
# map-keyed builders it replaced (before and after `auto`), the bundle
# over store-decoded and embedded PDGs against the cold one, CSR's Tarjan,
# condensation and Kahn's order against the map-keyed ones on random
# graphs, and the bulk PDG layout against insertion order. The text and
# key layers close it: irtext's pull scanner against the token-slice
# parser (same module or same error string) and the one-buffer
# fingerprint walk against the per-field writer (same bits), each on the
# generated subjects and the whole program, the fingerprints again after
# `auto` lowered them. The order oracle ends it: the corpus lowered by
# `doall` and by `auto` at 2 and 4 cores, run -seq with every doall
# dispatch's workers reversed, must print, exit and leave the globals as
# in order, and the self-dependence reproducer (pinned doall, 12 cores)
# must differ reversed, which is the oracle's power.
tier-diff:
	NOELLE_ENGINE=walker NOELLE_SKIP_SPEEDUP_TEST=1 $(GO) test -race ./internal/interp/... ./internal/queue/... ./internal/profiler/ ./internal/machine/
	NOELLE_ENGINE=compiled NOELLE_SKIP_SPEEDUP_TEST=1 $(GO) test -race ./internal/interp/... ./internal/queue/... ./internal/profiler/ ./internal/machine/
	$(GO) test -run 'TestTiersAgree|TestCompiledTierSpeedup|TestCompileMatchesReference' -v ./internal/interp/
	$(GO) test -run 'TestCollectMatchesWalkerReference|TestAttributionMatchesWalkerReference' -v ./internal/profiler/ ./internal/machine/
	$(GO) test -race -run 'TestPageTableMatchesReference|TestPageTableFirstTouchRace|TestCalleeAllocasPop|TestDOALLCalleeAllocasPop' -v ./internal/interp/
	$(GO) test -race -run 'TestPointsToMatchesReference|TestConcurrentPDGBuildsShareOnePointsTo' -v ./internal/alias/
	$(GO) test -run 'TestLoopBundleMatchesReference|TestWarmBundlesMatchCold|TestCSRMatchesReference|TestBulkGraphKeepsInsertionOrder' -v ./internal/loops/ ./internal/core/ ./internal/graph/ ./internal/pdg/
	$(GO) test -run 'TestParseMatchesReference|TestFingerprintMatchesReference' -v ./internal/irtext/ ./internal/ir/
	$(GO) test -run 'TestWorkerOrder|TestReversedDOALLWorkersAgree|TestReversedWorkersExposeTheSelfDependenceRace' -v ./internal/interp/ ./internal/tools/

# The repo's own unit costs, one iteration each (about a second; CI's
# test job prints them): reading the whole program's text
# (BenchmarkParseWhole) and keying it (BenchmarkFingerprintWhole), the
# whole-module points-to analysis (BenchmarkPointsToWhole: ns, bytes and
# allocations per solve), auto's plan-and-price decision
# (BenchmarkAutoPricing: one training run) and its training run as the
# invocation count grows (BenchmarkAutoPrice: bytes per op stay flat), a cold and a warm pass over
# every function PDG, the loop bundle of every loop over built PDGs
# (BenchmarkLoopBundle), the compiled tier's compile of every function
# of the whole program on a fresh image, which every run pays for what it
# calls (BenchmarkCompileWhole: ns per instruction and allocations per
# function), an interpreted step on the compiled tier
# (BenchmarkInterpSteps: ns/step over the untransformed
# bench.ParallelProgram(65536)), and the ablations.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# The warm-load trajectory: cold (one points-to analysis, about 3 ms,
# then a from-scratch PDG build per function) vs warm (persistent store
# decode per function, no analysis) on the bundled whole-program module.
bench-cache:
	$(GO) test -bench 'FunctionPDG(Cold|Warm)' -benchtime=3x -run '^$$' .

# Two-process warm-load smoke check through the real CLIs: the second
# noelle-load run over the same input must build zero PDGs (asserted via
# noelle-cache stats).
cache-smoke:
	bash scripts/cache_smoke.sh

# Compile-service smoke through the real daemon under -race: concurrent
# mixed requests, an identical burst that must coalesce, a warm re-run
# that must hit the resident session and byte-match a cold noelle-load
# run, then a graceful drain (asserted via the stats endpoint and a
# report diff — see scripts/serve_smoke.sh).
serve-smoke:
	bash scripts/serve_smoke.sh

# The repository's one benchmark (BENCHMARK.json): seven workloads, six
# end-to-end metrics each, per-layer unit costs on a traced pass. It is
# its own module under benchmark/; results land in benchmark/out/.
benchmark:
	$(GO) run -C benchmark .

# Paired runs of one workload on two revisions (the rule for performance
# claims): make benchpair A=<parent> B=<change> W=helix_pipe [N=10].
# Each side is a git-archive export, so only committed trees are measured.
benchpair:
	$(GO) run ./scripts/benchpair -a $(A) -b $(B) -w $(W) $(if $(N),-n $(N))

# What CI runs in place of a full benchmark: the nested module must
# still compile and pass its tests against this tree's internal/*
# packages (root `go test ./...` does not see it), and one second each
# of the run-plane control, the two pipelines that live on the
# communication plane (bulk queue operations once per chunk of
# iterations, then ticket signals and one fork per block of iterations),
# the auto orchestrator's workload (the only one that runs `auto` and
# its one training run for every loop it scores, on the compiled tier's
# loop-cost probes) and a service workload must finish with
# every check passing (the driver exits non-zero on any wrong output or
# exact count that moves between runs).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) run -C benchmark . --workload doall_map --seconds 1 --trace 0
	$(GO) run -C benchmark . --workload dswp_pipe --seconds 1 --trace 0
	$(GO) run -C benchmark . --workload helix_pipe --seconds 1 --trace 0
	$(GO) run -C benchmark . --workload auto_mix --seconds 1 --trace 0
	$(GO) run -C benchmark . --workload serve_closed --seconds 1 --trace 0

# Differential fuzzing smoke under -race: 200 fixed-seed generated
# programs swept across every technique plus the auto orchestrator
# (both engines always run — walker vs compiled is an oracle), then the
# stress, fault-injection, and miscompile-injection legs. Fixed seeds
# keep the run deterministic and replayable; any failure writes a
# minimized .nir reproducer under fuzz-failures/. The inject leg exits
# non-zero unless the seeded miscompile is caught, so the harness's
# detection power is itself gated.
campaign-smoke:
	$(GO) run -race ./cmd/noelle-fuzz -leg campaign -seeds 200 -blocks 4 -arrays 3 -arraylen 32 \
		-matrix "tech=doall,dswp,helix,auto;cores=2;qcap=0" -parallel 4
	$(GO) run -race ./cmd/noelle-fuzz -leg stress -seeds 12 -blocks 4 -arrays 3 -arraylen 32
	$(GO) run -race ./cmd/noelle-fuzz -leg faults -seeds 12 -blocks 4 -arrays 3 -arraylen 32
	$(GO) run -race ./cmd/noelle-fuzz -leg inject -seeds 40 -blocks 4 -arrays 3 -arraylen 32

# Native Go fuzzing, ten seconds per target: FuzzQueueOps drives random
# Push/PushN/Pop/PopN/Close sequences in non-blocking mode against a
# slice model (no panic, same values in the same order, same errors);
# FuzzParse feeds irtext.Parse arbitrary text and holds it to the
# token-slice reference parser (no panic, same module or same error);
# FuzzDecode feeds abscache.Decode arbitrary record bytes, checksum
# re-sealed so mutations reach the field parsers (no panic, and building
# an accepted record's graph allocates in proportion to the function and
# the record, never to a count the record claims; its seeds are
# kilobyte records, and minimizing each new input for the default 60 s
# would spend the whole budget on the first one); FuzzRequest feeds the
# compile daemon's request path (one frame read under a 64 KiB limit, the
# request JSON decode, the run options' mapping onto tool.Options) bytes
# off the wire (no panic, an oversized length prefix refused without
# allocating, the wire settings carried into the one interp.ExecConfig);
# FuzzTiersAgree feeds irtext.Parse arbitrary text and runs what parses
# on both engines at a fuzzed step budget in [1, 5000], sequential
# dispatch (every observable interptest.Compare diffs must match);
# FuzzCompile feeds minic.Compile arbitrary text (no panic, no hang, and
# a module it returns verifies).
# The committed seeds under each package's testdata/fuzz/ also run as
# plain subtests of every `go test`; a crasher the fuzzer finds lands
# there too and keeps failing until fixed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOps$$' -fuzztime 10s ./internal/queue/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/irtext/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/abscache/
	$(GO) test -run '^$$' -fuzz '^FuzzRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzTiersAgree$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/interp/
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/minic/

# Documentation consistency: markdown links resolve, every backticked
# path and make target the docs cite exists, cmd/README.md lists every
# binary under cmd/, and every registered tool is described there.
check-docs:
	$(GO) run ./scripts/checkdocs

# The examples/parallelize walkthrough, replayed through the real CLIs
# against its committed expected output, ending with a traced run whose
# Chrome trace scripts/tracecheck validates (left in trace_example.json),
# then examples/quickstart, the library facade's example.
example-smoke:
	bash scripts/example_smoke.sh
