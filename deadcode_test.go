package noelle

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names a standard-library interface calls
// by itself (fmt.Stringer, error, flag.Value, sort.Interface,
// heap.Interface, io.Reader/Writer/Closer), so a declaration of one can
// be live with no reference to its name in this tree.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Set": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// TestEveryFunctionHasACaller fails for each function or method declared
// in non-test code whose name no other identifier in the tree
// (benchmark/ and test files included) mentions: code that nothing
// calls is deleted, not kept for a client that may come.
func TestEveryFunctionHasACaller(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declIdents := map[*ast.Ident]bool{}
		for _, x := range f.Decls {
			if fd, ok := x.(*ast.FuncDecl); ok {
				declIdents[fd.Name] = true
				if !strings.HasSuffix(path, "_test.go") {
					decls = append(decls, decl{fset.Position(fd.Name.Pos()), fd.Name.Name})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no function declarations found")
	}
	var dead []string
	for _, d := range decls {
		if refs[d.name] > 0 || d.name == "main" || d.name == "init" || interfaceMethods[d.name] {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name))
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions have no caller:\n%s", len(dead), strings.Join(dead, "\n"))
	}
}
