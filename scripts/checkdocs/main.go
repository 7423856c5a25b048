// checkdocs is the documentation-consistency gate (make check-docs, the
// CI docs job). It enforces four invariants that otherwise rot
// silently:
//
//  1. every relative markdown link in every *.md file resolves to an
//     existing file or directory (anchors and external URLs are skipped);
//  2. every name the docs cite exists: backticked repo-relative paths
//     (*.md, *.json, scripts/..., cmd/..., internal/...) and backticked
//     `make <target>` commands in markdown, and *.md files named in Go
//     package doc comments — deleting a script or a make target cannot
//     leave a sentence pointing at it. The driver's own logs and
//     reference material (logFiles) describe past or foreign trees and
//     are exempt;
//  3. cmd/README.md mentions every binary directory under cmd/ — a new
//     noelle-* binary cannot land undocumented;
//  4. cmd/README.md mentions every registered custom tool by name — the
//     registry is linked in, so the check is against the live inventory,
//     not a hand-maintained list.
//
// Usage: go run ./scripts/checkdocs [-root .]
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"noelle/internal/tool"

	// The live tool inventory the README is checked against.
	_ "noelle/internal/tools"
)

// linkRe matches inline markdown links [text](target). Reference-style
// links are rare enough here to skip.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeSpanRe matches an inline `code span`.
var codeSpanRe = regexp.MustCompile("`([^`\n]+)`")

// mdNameRe matches a markdown file named in running text.
var mdNameRe = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b`)

// logFiles are exempt from name resolution (links are still checked):
// the append-only history, the roadmap and the issue cite files as they
// were when written, and the paper notes cite other repositories.
var logFiles = map[string]bool{
	"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true, "REVIEW.md": true,
	"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
}

// pathPrefixes are the repo-relative directories whose backticked
// mentions must resolve.
var pathPrefixes = []string{"scripts/", "cmd/", "internal/"}

// fileExts are suffixes that make a dotted last path element a file
// name rather than a package-qualified symbol (internal/serve.Config).
var fileExts = []string{".go", ".md", ".json", ".sh", ".nir", ".c", ".txt", ".yml"}

// citedPath reports whether a code-span word names a repo path that
// must exist, and returns it cleaned. Words with glob, brace, or
// placeholder characters are patterns, not names. Bare *.md / *.json
// names count only when they are the whole span (alone): inside a
// command they are example arguments.
func citedPath(word string, alone bool) (string, bool) {
	if strings.ContainsAny(word, "*{}<>$…") {
		return "", false
	}
	word = strings.TrimPrefix(strings.Trim(word, `.,;:()"'`), "./")
	if i := strings.IndexByte(word, ':'); i >= 0 {
		word = word[:i] // file:line
	}
	prefixed := false
	for _, p := range pathPrefixes {
		prefixed = prefixed || strings.HasPrefix(word, p)
	}
	if !prefixed && !(alone && (strings.HasSuffix(word, ".md") || strings.HasSuffix(word, ".json"))) {
		return "", false
	}
	// A package-qualified symbol cites its package directory.
	dir, last := filepath.Split(word)
	if i := strings.IndexByte(last, '.'); i > 0 {
		isFile := false
		for _, ext := range fileExts {
			isFile = isFile || strings.HasSuffix(last, ext)
		}
		if !isFile {
			word = dir + last[:i]
		}
	}
	return word, word != ""
}

// exists reports whether name resolves from the citing file's directory
// or from the repository root.
func exists(root, from, name string) bool {
	for _, base := range []string{filepath.Dir(from), root} {
		if _, err := os.Stat(filepath.Join(base, name)); err == nil {
			return true
		}
	}
	return false
}

// makeTargets parses the Makefile's .PHONY lists.
func makeTargets(root string) (map[string]bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, t := range strings.Fields(rest) {
				targets[t] = true
			}
		}
	}
	return targets, nil
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// ---- 1 + 2: links and cited names in every markdown file resolve ----
	var mdFiles, goFiles []string
	err := filepath.Walk(*root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() {
			if name == ".git" || name == "testdata" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".md":
			mdFiles = append(mdFiles, path)
		case ".go":
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(1)
	}
	targets, err := makeTargets(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(1)
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkdocs:", err)
			os.Exit(1)
		}
		text := stripFences(string(data))
		if rel, _ := filepath.Rel(*root, md); !logFiles[rel] {
			for _, m := range codeSpanRe.FindAllStringSubmatch(text, -1) {
				words := strings.Fields(m[1])
				for i, w := range words {
					if name, ok := citedPath(w, len(words) == 1); ok && !exists(*root, md, name) {
						fail("%s: `%s` names %s, which does not exist", md, m[1], name)
					}
					if w == "make" && i+1 < len(words) {
						t := strings.Trim(words[i+1], ".,;:()")
						if t != "" && !strings.HasPrefix(t, "-") && !strings.ContainsAny(t, "<$") && !targets[t] {
							fail("%s: `%s` names make target %q, which the Makefile's .PHONY does not list", md, m[1], t)
						}
					}
				}
			}
		}
		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				fail("%s: broken link %q (%s does not exist)", md, m[1], resolved)
			}
		}
	}

	// ---- 2b: *.md files named in Go package doc comments exist ----
	for _, path := range goFiles {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkdocs:", err)
			os.Exit(1)
		}
		if f.Doc == nil {
			continue
		}
		for _, name := range mdNameRe.FindAllString(f.Doc.Text(), -1) {
			if !exists(*root, path, name) {
				fail("%s: package doc names %s, which does not exist", path, name)
			}
		}
	}

	// ---- 3: cmd/README.md names every binary under cmd/ ----
	readmePath := filepath.Join(*root, "cmd", "README.md")
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(1)
	}
	entries, err := os.ReadDir(filepath.Join(*root, "cmd"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(1)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !strings.Contains(string(readme), e.Name()) {
			fail("cmd/README.md does not mention binary %q", e.Name())
		}
	}

	// ---- 4: cmd/README.md names every registered custom tool ----
	for _, name := range tool.Names() {
		if !regexp.MustCompile(`(?m)\b` + regexp.QuoteMeta(name) + `\b`).Match(readme) {
			fail("cmd/README.md does not mention registered tool %q", name)
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "checkdocs:", p)
		}
		fmt.Fprintf(os.Stderr, "checkdocs: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("checkdocs: %d markdown files, %d Go files, %d binaries, %d tools — all consistent\n",
		len(mdFiles), len(goFiles), countDirs(entries), len(tool.Names()))
}

// stripFences drops ```-fenced code blocks: quoted exemplar code (e.g.
// SNIPPETS.md) links into *other* repositories, which is not a rot
// signal for this one.
func stripFences(s string) string {
	var out []string
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func countDirs(entries []os.DirEntry) int {
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			n++
		}
	}
	return n
}
