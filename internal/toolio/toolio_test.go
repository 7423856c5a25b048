package toolio

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReadStdinReportsReadErrors: a stdin that fails mid-read must
// surface the error, not hand a silently truncated module to the parser.
func TestReadStdinReportsReadErrors(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdin"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	saved := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = saved }()

	if data, err := readAll("-"); err == nil {
		t.Errorf("readAll(\"-\") on a closed stdin = %q, nil; want a read error", data)
	}
}
