// Command benchmark is the repository's one benchmark: seven named
// workloads over the whole stack, the end-to-end metrics a user sees on an
// untraced pass, and the unit costs of every layer on a traced pass. Each
// layer is measured from outside, by timing calls into the public
// functions of the internal packages. README.md has the tables.
//
//	go run -C benchmark .                                  # every workload, both passes
//	go run -C benchmark . --workload dswp_pipe --trace 0   # one untraced run
//	go run -C benchmark . --workload dswp_pipe --seed 7 --seconds 10 --trace 1
//
// A run prints the run's meta block and a metric table, and ends with one
// JSON line holding correct, attempted, failed and metrics. The exit code
// is non-zero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	// Pipelines resolve their tools through the registry.
	_ "noelle/internal/tools"
)

// run is one workload on one pass: what it was asked to do, and what it
// found.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// cores is C: Options.Cores, Interp.DispatchWorkers, daemon workers
	// and client connections all take it, so the process never has more
	// goroutines doing work than C.
	cores int
	// tmp is this run's scratch directory under .bench_build/tmp in the
	// checkout. Nothing in it is ever deleted by the benchmark: on the
	// virtual disks this runs on (ext4 mounted with discard), unlinking a
	// run's few thousand small files makes file commits two to three
	// times slower for the minutes that follow, and compile_cold, whose
	// op commits 137 files, then measures the previous run's clean-up
	// (its compile_ms climbed from 340 to 550 ms over twenty runs).
	tmp  string
	dirs int
	// sp records spans on the traced pass and is nil on the untraced one.
	sp *spans

	metrics   map[string]float64
	counts    map[string]int64
	timings   map[string][]float64
	attempted int
	failed    int
	failures  []string
}

// check counts one verified outcome and records a failure when it is wrong.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// newDir names a directory under tmp that does not exist yet.
func (r *run) newDir() string {
	r.dirs++
	return filepath.Join(r.tmp, fmt.Sprintf("dir%d", r.dirs))
}

// count records a number that must repeat exactly on every pass and run.
func (r *run) count(name string, v int64) {
	if old, seen := r.counts[name]; seen {
		r.check(old == v, "%s changed within one run: %d then %d", name, old, v)
	}
	r.counts[name] = v
	r.metrics[name] = float64(v)
}

// timing keeps the samples (ms) behind a reported timing, for the meta
// block's sample counts and tails, and returns their median.
func (r *run) timing(name string, samples []float64) float64 {
	r.timings[name] = samples
	return median(samples)
}

// budget is the run's measuring time: --seconds on the untraced pass, a
// third of it on the traced pass, which repeats the same ops less often
// and then makes its layer calls.
func (r *run) budget() time.Duration {
	s := r.seconds
	if r.traced {
		s /= 3
	}
	return time.Duration(s * float64(time.Second))
}

// phase is one kind of timed op of a workload. An op times itself, so the
// checks it makes around the timed call cost budget and not samples; it
// reports false when it failed.
type phase struct {
	// perRound ops run back to back in every round.
	perRound int
	// floor is the sample count below which the run goes on past its
	// budget (a third of it on the traced pass).
	floor int
	op    func(i int) (time.Duration, bool)
	walls []float64 // ms
	tries int
}

// interleave runs the phases round-robin, perRound ops of each per round,
// until the budget is spent and every phase has its floor. Every metric
// then samples the whole window, so a slow spell of the host weighs on
// all of them a little instead of on one of them entirely.
func (r *run) interleave(phases ...*phase) {
	deadline := time.Now().Add(r.budget())
	short := func() bool {
		for _, p := range phases {
			floor := p.floor
			if r.traced {
				floor = max(floor/3, 2)
			}
			if len(p.walls) < floor && p.tries < 3*floor {
				return true // an op failing every time stops counting
			}
		}
		return false
	}
	for short() || time.Now().Before(deadline) {
		for _, p := range phases {
			for k := 0; k < p.perRound; k++ {
				d, ok := p.op(p.tries)
				p.tries++
				if ok {
					p.walls = append(p.walls, ms(d))
				}
			}
		}
	}
}

// setUp runs once three times and reports the median as setup_s, so that
// work moved into set-up shows; the state of the last one is kept.
// teardown releases the state of the ones that are dropped.
func setUp[T any](r *run, once func() (T, error), teardown func(T)) (T, error) {
	var kept T
	var walls []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, err := once()
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return kept, fmt.Errorf("set-up: %w", err)
		}
		if i < 2 {
			if teardown != nil {
				teardown(st)
			}
			continue
		}
		kept = st
	}
	if !r.traced {
		r.set("setup_s", median(walls))
	}
	return kept, nil
}

type workload struct {
	name string
	// runPlane workloads time parallel execution and refuse to run where
	// that cannot be measured.
	runPlane bool
	run      func(r *run) error
}

var workloads = []workload{
	{"doall_map", true, runPlaneWorkload(doallMap)},
	{"dswp_pipe", true, runPlaneWorkload(dswpPipe)},
	{"helix_pipe", true, runPlaneWorkload(helixPipe)},
	{"auto_mix", true, runPlaneWorkload(autoMix)},
	{"compile_cold", false, func(r *run) error { return compileWorkload(r, false) }},
	{"compile_warm", false, func(r *run) error { return compileWorkload(r, true) }},
	{"serve_closed", false, serveWorkload},
}

// meta describes the conditions of a run; it is printed before the
// metrics and stored next to them.
type meta struct {
	GitCommit  string             `json:"git_commit"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Cores      int                `json:"cores"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Timings    map[string]tailRow `json:"timings"`
}

// tailRow states how many samples a timing rests on and its tail at the
// highest percentile that has at least ten samples beyond it.
type tailRow struct {
	Samples  int     `json:"samples"`
	MedianMS float64 `json:"median_ms"`
	Tail     string  `json:"tail,omitempty"`
	TailMS   float64 `json:"tail_ms,omitempty"`
}

// gitCommit names the checked-out commit, with "-dirty" when the tree has
// uncommitted changes, or "unknown" outside a git checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	head, err := git("rev-parse", "--short=12", "HEAD")
	if err != nil {
		return "unknown"
	}
	if status, err := git("status", "--porcelain"); err != nil || status != "" {
		head += "-dirty"
	}
	return head
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// result is the last line of a run's output, in the driver's format.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricCell `json:"metrics"`
}

type metricCell struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stored is what a run leaves in benchmark/out next to its span file.
type stored struct {
	Meta     meta                 `json:"meta"`
	Result   result               `json:"result"`
	Counts   map[string]int64     `json:"exact_counts"`
	Failures []string             `json:"failures,omitempty"`
	Samples  map[string][]float64 `json:"samples_ms"`
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all seven)")
	seed := flag.Int64("seed", 1, "seed of the serve_closed schedule and its hot modules")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), default both")
	describe := flag.Bool("describe", false, "print the declarations as BENCHMARK.json and exit")
	idle := flag.Bool(idleSpinFlag, false, "internal: be one of keepAwake's idle-priority spinners")
	flag.Parse()

	if *idle {
		idleSpin()
	}
	if *describe {
		out, _ := json.MarshalIndent(declared(), "", "  ")
		fmt.Println(string(out))
		return
	}
	if err := benchMain(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func benchMain(name string, seed int64, seconds float64, trace int) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if seconds <= 0 || flag.NArg() > 0 || trace < -1 || trace > 1 {
		return fmt.Errorf("usage: --workload NAME --seed N --seconds S --trace 0|1")
	}
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	passes := []bool{false, true}
	if trace >= 0 {
		passes = []bool{trace == 1}
	}

	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	m := meta{
		GitCommit: gitCommit(root), GoVersion: runtime.Version(),
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Cores: min(nproc, 4),
		Seed: seed, Seconds: seconds,
	}

	bad := false
	for _, w := range selected {
		// ROADMAP 1a: a parallel timing taken without the cores to run
		// it on is unmeasurable, and is refused instead of published.
		if w.runPlane && (nproc < 2 || m.GOMAXPROCS < m.Cores) {
			return fmt.Errorf("%s: unmeasurable: nproc=%d GOMAXPROCS=%d, parallel execution needs at least 2 CPUs and GOMAXPROCS >= %d",
				w.name, nproc, m.GOMAXPROCS, m.Cores)
		}
		var counts [2]map[string]int64
		for _, traced := range passes {
			r, err := runWorkload(w, m, traced, filepath.Join(root, ".bench_build", "tmp"))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			counts[btoi(traced)] = r.counts
			if traced && counts[0] != nil {
				for _, c := range exactCounts {
					u, inU := counts[0][c]
					t, inT := counts[1][c]
					if inU && inT {
						r.check(u == t, "%s differs between the passes: untraced %d, traced %d", c, u, t)
					}
				}
			}
			if err := report(r, m, outDir); err != nil {
				return err
			}
			bad = bad || r.failed > 0
		}
	}
	if bad {
		return fmt.Errorf("checks failed")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runWorkload(w workload, m meta, traced bool, tmpRoot string) (*run, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: w.name, seed: m.Seed, seconds: m.Seconds, traced: traced, cores: m.Cores, tmp: tmp,
		metrics: map[string]float64{}, counts: map[string]int64{}, timings: map[string][]float64{},
	}
	if traced {
		r.sp = newSpans()
	}
	defer keepAwake(r.cores)()
	if err := w.run(r); err != nil {
		return nil, err
	}
	return r, nil
}

// report prints the run for a reader, stores it with its spans under
// benchmark/out, and prints the driver's JSON line last.
func report(r *run, m meta, outDir string) error {
	m.Workload, m.Traced = r.workload, r.traced
	m.Timings = map[string]tailRow{}
	for name, samples := range r.timings {
		row := tailRow{Samples: len(samples), MedianMS: median(samples)}
		if q, ok := tailPercentile(len(samples)); ok {
			row.Tail, row.TailMS = fmt.Sprintf("p%g", q*100), quantile(samples, q)
		}
		m.Timings[name] = row
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricCell{}}
	if r.traced {
		r.set("bench.fail_share", float64(r.failed)/float64(max(r.attempted, 1)))
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricCell{r.metrics[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := r.metrics[d.Name]
			if !ok || v == 0 {
				r.check(false, "%s was not measured", d.Name)
				res.Correct, res.Failed = false, r.failed
			}
			res.Metrics[d.Name] = metricCell{v, d.Unit}
		}
	}

	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s pass) commit=%s %s nproc=%d GOMAXPROCS=%d C=%d seed=%d seconds=%g\n",
		r.workload, pass, m.GitCommit, m.GoVersion, m.NProc, m.GOMAXPROCS, m.Cores, m.Seed, m.Seconds)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cell := res.Metrics[name]
		if r.traced && cell.Value == 0 {
			continue // a layer this workload does not exercise
		}
		line := fmt.Sprintf("  %-32s %14.4f %s", name, cell.Value, cell.Unit)
		if t, ok := m.Timings[name]; ok {
			line += fmt.Sprintf("   (n=%d", t.Samples)
			if t.Tail != "" {
				line += fmt.Sprintf(", %s %.4f", t.Tail, t.TailMS)
			}
			line += ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-trace%d", r.workload, btoi(r.traced)))
	data, err := json.MarshalIndent(stored{Meta: m, Result: res, Counts: r.counts, Failures: r.failures, Samples: r.timings}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if r.sp != nil {
		if err := r.sp.write(base + "-spans.json"); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
