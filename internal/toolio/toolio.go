// Package toolio carries the plumbing shared by the noelle-* command
// line tools: reading and writing textual IR modules and mini-C sources,
// profiles and traces, and the execution flags.
package toolio

import (
	"fmt"
	"io"
	"os"

	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
)

// ReadModule parses a textual IR module from path ("-" = stdin).
func ReadModule(path string) (*ir.Module, error) {
	data, err := readAll(path)
	if err != nil {
		return nil, err
	}
	m, err := irtext.Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteModule prints the module to path ("-" = stdout).
func WriteModule(m *ir.Module, path string) error {
	text := ir.Print(m)
	if path == "-" || path == "" {
		_, err := os.Stdout.WriteString(text)
		return err
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

// CompileC compiles a mini-C source file into IR.
func CompileC(path string) (*ir.Module, error) {
	data, err := readAll(path)
	if err != nil {
		return nil, err
	}
	m, err := minic.Compile(path, string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func readAll(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// Fatal prints the error and exits.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
