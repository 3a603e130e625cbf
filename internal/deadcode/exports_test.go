// Package deadcode holds the module's dead-export guard. It has no non-test
// code.
package deadcode

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

// moduleRoot is the repository root relative to this package's directory.
// The walk covers benchmark/ too: it is a module of its own, but it calls
// into internal/ and so counts as a caller.
const moduleRoot = "../.."

// exemptDirs are test-harness packages: their exports exist for other
// packages' tests, so a missing non-test caller is expected.
var exemptDirs = map[string]bool{
	"internal/faultfs":  true,
	"internal/netfault": true,
}

// fenced lists paper definitions kept with their tests although no non-test
// code calls them, keyed by "<package dir>.<name>".
var fenced = map[string]string{
	"internal/symbolic.VerticalAverage": "Definition 2 (count-based vertical segmentation); the pipeline uses the wall-clock form, timeseries.Series.Resample",
	"internal/symbolic.ExpertTable":     "§3.2's expert-defined lookup table, the paper's alternative to a learned one",
}

// TestNoDeadExports fails when an exported package-level name declared in a
// non-test file under internal/ has no identifier reference in any non-test
// .go file of the repository. Such a name is only kept alive by its tests:
// delete it, move it into the package's _test.go files, or — for a paper
// definition — fence it above with a reason. The check is by name, not by
// type: any identifier spelled the same counts as a reference, so it can
// miss dead code, but it flags only names nothing outside tests spells.
func TestNoDeadExports(t *testing.T) {
	type decl struct{ dir, name string }
	var decls []decl
	refs := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != moduleRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		tracked := strings.HasPrefix(dir, "internal/") && !exemptDirs[dir]
		// Declaring identifiers are not references. Methods count here too,
		// so a method named like a function does not keep that function alive.
		declared := map[*ast.Ident]bool{}
		note := func(id *ast.Ident, topLevel bool) {
			declared[id] = true
			if topLevel && tracked && id.IsExported() {
				decls = append(decls, decl{dir, id.Name})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				note(dd.Name, dd.Recv == nil)
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						note(spec.Name, true)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							note(id, true)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
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
		t.Fatal("walked no declarations under internal/")
	}

	// live maps every tracked declaration to whether anything references it.
	live := map[string]bool{}
	var dead []string
	for _, d := range decls {
		key := d.dir + "." + d.name
		live[key] = refs[d.name] > 0
		if _, ok := fenced[key]; !ok && !live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s has no non-test caller: delete it, move it into the package's tests, or fence it as a paper definition", key)
	}
	for key := range fenced {
		isLive, declared := live[key]
		switch {
		case !declared:
			t.Errorf("fenced %s is no longer declared; drop it from the fenced list", key)
		case isLive:
			t.Errorf("fenced %s now has a non-test caller; drop it from the fenced list", key)
		}
	}
}
