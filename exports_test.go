package dsasim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedExports fails on every exported function or method
// declared under internal/ whose name occurs nowhere in the module (tests
// included) except at its own declaration. Only identifiers count, so a
// mention in a comment does not keep a dead export alive. Directories whose
// names start with a dot (.git, build caches) are skipped.
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				decls = append(decls, fn.Name.Name+" ("+fset.Position(fn.Pos()).String()+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if name, _, _ := strings.Cut(d, " "); uses[name] == 1 {
			dead = append(dead, d)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported functions are referenced nowhere; delete them:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}
