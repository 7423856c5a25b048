// benchpair runs the repository's benchmark on two git revisions in
// alternation and reports, per end-to-end metric, each side's median and
// quartiles and how many pairs the second revision won — the house rule
// for every performance claim (ROADMAP: "one claim per perf PR, paired
// parent/change runs with quartiles"). Each revision is exported with
// git archive into a directory of its own, so what runs is the committed
// tree, as the driver runs it; a pair is one run of each side back to
// back, and which side goes first alternates from pair to pair so a slow
// spell of the host weighs on both.
//
// Usage: go run ./scripts/benchpair -a REV -b REV -w WORKLOAD
//
//	[-n 10] [-seed 1] [-seconds 10] [-dir DIR]
//
// (make benchpair A=… B=… W=…). DIR defaults to a fresh temporary
// directory, removed at the end; an explicit one is kept.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type side struct {
	rev, dir string
	samples  map[string][]float64
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	a := flag.String("a", "", "first revision (the parent)")
	b := flag.String("b", "", "second revision (the change)")
	w := flag.String("w", "", "workload name (see BENCHMARK.json)")
	n := flag.Int("n", 10, "pairs of runs")
	seed := flag.Int("seed", 1, "benchmark --seed")
	seconds := flag.Int("seconds", 10, "benchmark --seconds")
	dir := flag.String("dir", "", "directory for the two checkouts (default: temporary)")
	flag.Parse()
	if *a == "" || *b == "" || *w == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*a, *b, *w, *n, *seed, *seconds, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(revA, revB, workload string, pairs, seed, seconds int, dir string) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchpair")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	sides := [2]*side{
		{rev: revA, dir: filepath.Join(dir, "a"), samples: map[string][]float64{}},
		{rev: revB, dir: filepath.Join(dir, "b"), samples: map[string][]float64{}},
	}
	for _, s := range sides {
		if err := export(s.rev, s.dir); err != nil {
			return err
		}
	}
	decls, err := endToEnd(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	for i := 0; i < pairs; i++ {
		for j := 0; j < 2; j++ {
			s := sides[(i+j)%2]
			got, err := benchmark(s.dir, workload, seed, seconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, s.rev, err)
			}
			for name, v := range got {
				s.samples[name] = append(s.samples[name], v)
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, pairs)
	}

	fmt.Printf("%s, %d pairs, --seed %d --seconds %d --trace 0\n  a = %s\n  b = %s\n",
		workload, pairs, seed, seconds, revA, revB)
	fmt.Printf("%-18s %-6s %32s %32s  %s\n", "metric", "unit", "a: median [q1 - q3]", "b: median [q1 - q3]", "b won")
	for _, d := range decls {
		xa, xb := sides[0].samples[d.Name], sides[1].samples[d.Name]
		if len(xa) != pairs || len(xb) != pairs {
			return fmt.Errorf("metric %s missing from some runs", d.Name)
		}
		won := 0
		for i := range xa {
			if (d.Better == "lower" && xb[i] < xa[i]) || (d.Better == "higher" && xb[i] > xa[i]) {
				won++
			}
		}
		fmt.Printf("%-18s %-6s %32s %32s  %d/%d\n", d.Name, d.Unit, spread(xa), spread(xb), won, pairs)
	}
	return nil
}

// export unpacks the committed tree of rev into dir.
func export(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	unpack := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	unpack.Stdin = pipe
	archive.Stderr, unpack.Stderr = os.Stderr, os.Stderr
	if err := unpack.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return unpack.Wait()
}

// endToEnd reads the end-to-end metric declarations of a checkout.
func endToEnd(path string) ([]metricDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// benchmark runs one untraced pass of the workload in the checkout at
// dir and returns the metrics of its closing JSON line.
func benchmark(dir, workload string, seed, seconds int) (map[string]float64, error) {
	cmd := exec.Command("go", "run", "-C", "benchmark", ".", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no closing JSON line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported correct:false\n%s", out)
	}
	got := map[string]float64{}
	for name, m := range res.Metrics {
		got[name] = m.Value
	}
	return got, nil
}

// spread renders median [q1 - q3] of xs (quartiles by linear
// interpolation between order statistics).
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		at := p * float64(len(s)-1)
		lo := int(at)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
	}
	return fmt.Sprintf("%.4g [%.4g - %.4g]", q(0.5), q(0.25), q(0.75))
}
