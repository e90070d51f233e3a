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

// testOnlyExportBudget is the number of exported functions and methods
// under internal/ that only tests reference. It may only fall: when an
// export loses its last non-test caller, delete it or cut its tests over,
// and when the count falls, lower the budget to match.
const testOnlyExportBudget = 37

// exportScan is one pass over the module's Go files: the exported
// functions and methods declared in internal/'s non-test files, each as
// "Name (file:line:col)", and how often each identifier occurs in non-test
// and in test files. Only identifiers count, so a mention in a comment
// keeps nothing alive. Directories whose names start with a dot (.git,
// build caches) are skipped.
type exportScan struct {
	decls    []string
	uses     map[string]int
	testUses map[string]int
}

func scanExports(t *testing.T) *exportScan {
	t.Helper()
	fset := token.NewFileSet()
	sc := &exportScan{uses: map[string]int{}, testUses: map[string]int{}}
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
		isTest := strings.HasSuffix(path, "_test.go")
		uses := sc.uses
		if isTest {
			uses = sc.testUses
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || isTest {
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				sc.decls = append(sc.decls, fn.Name.Name+" ("+fset.Position(fn.Pos()).String()+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// filter returns the sorted declarations whose name passes keep, given
// the name's non-test and test occurrence counts (the declaration itself
// is one non-test occurrence).
func (sc *exportScan) filter(keep func(uses, testUses int) bool) []string {
	var out []string
	for _, d := range sc.decls {
		if name, _, _ := strings.Cut(d, " "); keep(sc.uses[name], sc.testUses[name]) {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// TestNoUnreferencedExports fails on every exported function or method
// declared under internal/ whose name occurs nowhere in the module (tests
// included) except at its own declaration.
func TestNoUnreferencedExports(t *testing.T) {
	dead := scanExports(t).filter(func(uses, testUses int) bool { return uses+testUses == 1 })
	if len(dead) > 0 {
		t.Errorf("%d exported functions are referenced nowhere; delete them:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// TestTestOnlyExportsRatchet fails when more exported functions and
// methods under internal/ are referenced only from tests than
// testOnlyExportBudget allows, and lists them.
func TestTestOnlyExportsRatchet(t *testing.T) {
	only := scanExports(t).filter(func(uses, testUses int) bool { return uses == 1 && testUses > 0 })
	if len(only) > testOnlyExportBudget {
		t.Errorf("%d exported functions are referenced only from tests, budget %d; delete them or give them a caller:\n%s",
			len(only), testOnlyExportBudget, strings.Join(only, "\n"))
	} else {
		t.Logf("%d exported functions referenced only from tests (budget %d):\n%s",
			len(only), testOnlyExportBudget, strings.Join(only, "\n"))
	}
}
