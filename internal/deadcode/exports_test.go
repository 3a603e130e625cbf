// Package deadcode holds the module's dead-export guard and its docs-drift
// check. It has no non-test code.
package deadcode

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exemptDirs are test-harness packages: their exports exist for other
// packages' tests, so a missing non-test caller is expected.
var exemptDirs = map[string]bool{
	"internal/faultfs":  true,
	"internal/netfault": true,
}

// fenced lists exported names kept although no non-test code calls them,
// keyed by "<package dir>.<name>" or "<package dir>.<type>.<method>". Two
// reasons qualify: a paper definition (cite the section) and a fixture that
// another package's tests need (name the test).
var fenced = map[string]string{
	"internal/symbolic.VerticalAverage":      "Definition 2 (count-based vertical segmentation); the pipeline uses the wall-clock form, timeseries.Series.Resample",
	"internal/symbolic.ExpertTable":          "§3.2's expert-defined lookup table, the paper's alternative to a learned one",
	"internal/symbolic.Symbol.Covers":        "§3's partial order on symbols of different resolutions",
	"internal/symbolic.SymbolSeries.Coarsen": "§4: higher-resolution symbols \"can easily be converted\" to lower ones",
	"internal/server.Store.PushTable":        "store half of storage's PushTableLegacy, the unsequenced table record of TestOnDiskBytesGolden and the recovery equivalence fixtures",
	"internal/server.Store.Snapshot":         "reference decoder of the stored stream for query's checkAgainstOracle and FuzzQueryVsOracle and fleet's TestFleetGapsRelearnBitExact",
}

// TestNoDeadExports fails when an exported name declared in a non-test file
// under internal/ — a package-level name, a method of a package-level type,
// or a method a package-level interface declares — is used by no non-test
// code of the repository (benchmark/ included) in any build of builds. Such
// a name is only kept alive by its tests: delete it, move it into the
// package's _test.go files, or fence it above with a reason.
//
// Names are judged by type-checked object, not by spelling. A method is
// used when a selector or method value refers to it, or when its receiver
// implements an interface whose method of that name is used: a
// module-declared interface method referenced by non-test code, or any
// method of a standard-library interface (error, fmt.Stringer, io.Writer,
// http.Handler, ...), whose callers live in the standard library.
func TestNoDeadExports(t *testing.T) {
	p := loadProgram(t)
	decls := map[token.Pos]string{} // tracked declaration → fence key
	used := map[token.Pos]bool{}
	for _, b := range builds {
		for _, pkg := range p.builds[b.name] {
			for _, obj := range pkg.info.Uses {
				used[origin(obj).Pos()] = true
			}
			if !strings.HasPrefix(pkg.dir, "internal/") || exemptDirs[pkg.dir] {
				continue
			}
			scope := pkg.types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if obj.Exported() {
					decls[obj.Pos()] = pkg.dir + "." + name
				}
				named, ok := obj.Type().(*types.Named)
				if _, isType := obj.(*types.TypeName); !isType || !ok {
					continue
				}
				methods := named.Methods()
				if it, ok := named.Underlying().(*types.Interface); ok {
					methods = it.ExplicitMethods()
				}
				for m := range methods {
					if m.Exported() {
						decls[m.Pos()] = pkg.dir + "." + name + "." + m.Name()
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations under internal/")
	}
	for _, b := range builds {
		markImplemented(t, p, p.builds[b.name], used)
	}

	live := map[string]bool{}
	var dead []string
	for pos, key := range decls {
		live[key] = live[key] || used[pos]
	}
	for key, isLive := range live {
		if _, ok := fenced[key]; !ok && !isLive {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s has no non-test caller: delete it, move it into the package's tests, or fence it with a reason", key)
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

// unnamedStd declares the interfaces the standard library asserts to
// without naming them: errors.Is, errors.As and errors.Unwrap call these
// methods on the errors they are given.
const unnamedStd = `package unnamed

type (
	Is        interface{ Is(error) bool }
	As        interface{ As(any) bool }
	Unwrap    interface{ Unwrap() error }
	UnwrapAll interface{ Unwrap() []error }
)
`

// markImplemented marks as used every method of a module type that
// implements a used interface method: a method of a module interface that
// non-test code refers to, or any method of a standard-library interface.
func markImplemented(t *testing.T, p *program, pkgs []*modPkg, used map[token.Pos]bool) {
	type iface struct {
		typ *types.Interface
		std bool // every method counts as used
	}
	ifaces := []iface{{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true}}
	addScope := func(pkg *types.Package, std bool) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || std && !tn.Exported() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, iface{it, std})
			}
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "unnamed.go", unnamedStd, 0)
	if err != nil {
		t.Fatal(err)
	}
	unnamed, err := new(types.Config).Check("unnamed", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addScope(unnamed, true)
	for _, pkg := range p.stdPackages() {
		addScope(pkg, true)
	}
	for _, pkg := range pkgs {
		addScope(pkg.types, false)
	}

	for _, pkg := range pkgs {
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				mset := types.NewMethodSet(typ)
				for _, it := range ifaces {
					if mset.Len() == 0 || !types.Implements(typ, it.typ) {
						continue
					}
					for m := range it.typ.Methods() {
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil && (it.std || used[m.Pos()]) {
							used[sel.Obj().Pos()] = true
						}
					}
				}
			}
		}
	}
}

// origin maps an object of an instantiated generic type or function to
// its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}
