package noelle

import (
	"context"
	"slices"
	"testing"
)

const facadeSrc = `
int table[64];
int scale = 5;
int never_called(int x) { return x * 3; }
int main() {
  int i; int acc = 0;
  for (i = 0; i < 200; i = i + 1) {
    int k = scale * 7 + 1;
    table[i % 64] = k + i;
    acc = acc + table[i % 64];
  }
  print_i64(acc); return acc % 256;
}
`

// TestFacadeRoundTrip drives the package doc's custom-tool pattern end to
// end through the facade alone: compile, load, run a transforming
// pipeline, and run the product, which must behave as the untransformed
// program does.
func TestFacadeRoundTrip(t *testing.T) {
	orig, err := CompileC("facade", facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	wantCode, wantOut, err := Run(orig)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}

	m, err := CompileC("facade", facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	n := Load(m, DefaultOptions())
	reports, err := RunPipeline(context.Background(), n, []string{"licm", "dead"}, DefaultToolOptions())
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(reports) != 2 || reports[0].Metrics["hoisted"] == 0 || reports[1].Metrics["removed"] != 1 {
		t.Fatalf("licm,dead changed nothing: %v", reports)
	}
	code, out, err := Run(m)
	if err != nil {
		t.Fatalf("run transformed: %v", err)
	}
	if code != wantCode || out != wantOut {
		t.Errorf("transformed run = (%d, %q), want (%d, %q)", code, out, wantCode, wantOut)
	}
}

// TestFacadeListsEveryTool: the facade links every bundled custom tool
// the package doc names into the registry Tools reads.
func TestFacadeListsEveryTool(t *testing.T) {
	var got []string
	for _, tl := range Tools() {
		got = append(got, tl.Name())
	}
	want := []string{"auto", "carat", "coos", "dead", "doall", "dswp", "helix", "licm", "perspective", "prvj", "timesq"}
	if !slices.Equal(got, want) {
		t.Errorf("Tools() = %v, want %v", got, want)
	}
}
