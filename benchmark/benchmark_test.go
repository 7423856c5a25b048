package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5,1,3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {39, 0, false}, {40, 0.75, true}, {99, 0.75, true},
		{100, 0.90, true}, {200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	list := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 45},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 10, 4: 30, 5: 20}
	if got := selfTimes(list); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpansRecordParentAndOp(t *testing.T) {
	var off *spans
	if id := off.begin("x", 0, 1); id != 0 {
		t.Errorf("untraced begin = %d, want 0", id)
	}
	off.end(0)
	ran := false
	off.timed("x", 0, 1, func() { ran = true })
	if !ran {
		t.Error("untraced timed did not run its function")
	}

	sp := newSpans()
	op := sp.begin("compile_op", 0, 7)
	sp.timed("stage", op, 7, func() {})
	sp.end(op)
	if len(sp.list) != 2 || sp.list[1].Parent != op || sp.list[1].Op != 7 || sp.list[0].End < sp.list[1].End {
		t.Errorf("spans = %+v", sp.list)
	}
	if got := sp.byName("stage"); len(got) != 1 {
		t.Errorf("byName(stage) = %v", got)
	}
	if c := spanCoverage(sp, "compile_op"); c < 0 || c > 1 {
		t.Errorf("spanCoverage = %v", c)
	}
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	const n = 1024
	a, b, other := schedule(7, n), schedule(7, n), schedule(8, n)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds gave the same schedule")
	}
	if !reflect.DeepEqual(a[:100], schedule(7, 100)) {
		t.Error("a shorter schedule is not a prefix of a longer one")
	}
	fresh := 0
	for i, q := range a {
		if want := i%freshEvery == freshEvery-1; q.Fresh != want {
			t.Fatalf("request %d: fresh = %v, want %v", i, q.Fresh, want)
		}
		if q.Fresh {
			if q.Module != fresh {
				t.Fatalf("request %d names one-shot module %d, want %d: each is seen once, in order", i, q.Module, fresh)
			}
			fresh++
		} else if q.Module < 0 || q.Module >= hotModules {
			t.Fatalf("request %d names hot module %d", i, q.Module)
		}
	}
	for i := 0; i < n; i += 4 {
		transforms := 0
		for _, q := range a[i : i+4] {
			if q.Transform {
				transforms++
			}
		}
		if transforms != 1 {
			t.Fatalf("requests %d..%d hold %d transforming requests, want 1", i, i+3, transforms)
		}
	}
	salts := moduleSalts(7)
	seen := map[int]bool{}
	for _, s := range salts {
		seen[s] = true
	}
	if len(salts) != hotModules+freshPool || len(seen) != len(salts) {
		t.Errorf("moduleSalts gave %d salts, %d distinct", len(salts), len(seen))
	}
	if reflect.DeepEqual(salts, moduleSalts(8)) {
		t.Error("different seeds gave the same modules")
	}
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	declare := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q is declared twice", n)
		}
		used[n] = true
	}
	if n := len(workloadDecls); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented; want 2 to 8 and the same", n, len(workloads))
	}
	for i, w := range workloadDecls {
		declare(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is declared %s and implemented %s", i, w.Name, workloads[i].name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range endToEnd {
		declare(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is out of the schema", m)
		}
		setup = setup || m == e2eMetric{"setup_s", "s", lower, m.Bound}
	}
	if !setup {
		t.Error("setup_s (s, lower) is not an end-to-end metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		declare(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v is out of the schema", m)
		}
	}
	for _, c := range exactCounts {
		if !used[c] {
			t.Errorf("exact count %q is not a declared per-layer metric", c)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var onDisk benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, declared()) {
		t.Error("BENCHMARK.json and schema.go disagree: regenerate it with `go run -C benchmark . --describe > BENCHMARK.json`")
	}
}

func TestExpectedOutputsCoverEveryProgram(t *testing.T) {
	for _, w := range []runPlaneSpec{doallMap, dswpPipe, helixPipe, autoMix} {
		e, err := expectedFor(w.module)
		if err != nil || e.Output == "" {
			t.Errorf("%s: %+v, %v", w.module, e, err)
		}
	}
}
