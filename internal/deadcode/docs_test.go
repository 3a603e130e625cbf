package deadcode

import (
	"encoding/json"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIdent matches a backticked Go reference A.B or A.B.C, optionally
// followed by a call's parentheses.
var docIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\([^`]*\\))?`")

// fileExts are the suffixes that make a dotted name a file, not Go.
var fileExts = map[string]bool{
	"go": true, "mod": true, "json": true, "md": true, "yml": true, "sh": true, "tmp": true,
}

// TestReadmeIdentifiersResolve fails when README.md cites a Go name that
// does not exist. Every backticked A.B[.C][(...)] must resolve when A names
// a package of the module or of the standard library it imports, or a type
// declared in the module: B is then a member of package A or a field or
// method of type A (unexported members count), and C a field or method of
// B. Other dotted names — file names, and the per-layer metric names that
// BENCHMARK.json declares (storage.fsync_p50_us, ...) — are not Go and are
// skipped.
func TestReadmeIdentifiersResolve(t *testing.T) {
	p := loadProgram(t)
	readme, err := os.ReadFile(filepath.Join(moduleRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	metricNames, err := perLayerMetrics()
	if err != nil {
		t.Fatal(err)
	}

	pkgs := map[string][]*types.Package{}  // package name → packages
	typeNames := map[string][]types.Type{} // type name → module types
	for _, pkg := range p.builds[builds[0].name] {
		pkgs[pkg.types.Name()] = append(pkgs[pkg.types.Name()], pkg.types)
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				typeNames[name] = append(typeNames[name], tn.Type())
			}
		}
	}
	for _, pkg := range p.stdPackages() {
		pkgs[pkg.Name()] = append(pkgs[pkg.Name()], pkg)
	}

	checked := 0
	for _, m := range docIdent.FindAllStringSubmatch(string(readme), -1) {
		ref, a, b, c := m[0], m[1], m[2], m[3]
		if fileExts[b] || fileExts[c] || metricNames[a+"."+b] {
			continue
		}
		var bTypes []types.Type
		switch {
		case len(pkgs[a]) > 0:
			for _, pkg := range pkgs[a] {
				if obj := pkg.Scope().Lookup(b); obj != nil {
					bTypes = append(bTypes, obj.Type())
				}
			}
		case len(typeNames[a]) > 0:
			bTypes = members(typeNames[a], b)
		default:
			continue // not a Go reference this check can judge
		}
		checked++
		if c != "" && len(bTypes) > 0 {
			bTypes = members(bTypes, c)
		}
		if len(bTypes) == 0 {
			t.Errorf("README.md cites %s, which does not resolve in the module", ref)
		}
	}
	if checked == 0 {
		t.Fatal("found no Go references in README.md")
	}
}

// members returns the types of the field or method name on each of ts,
// for those that have one.
func members(ts []types.Type, name string) []types.Type {
	var out []types.Type
	for _, typ := range ts {
		var pkg *types.Package
		if named, ok := typ.(*types.Named); ok {
			pkg = named.Obj().Pkg()
		}
		if obj, _, _ := types.LookupFieldOrMethod(typ, true, pkg, name); obj != nil {
			out = append(out, obj.Type())
		}
	}
	return out
}

// perLayerMetrics reads the per-layer metric names BENCHMARK.json declares.
func perLayerMetrics() (map[string]bool, error) {
	raw, err := os.ReadFile(filepath.Join(moduleRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bench struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, m := range bench.PerLayer {
		names[strings.TrimSpace(m.Name)] = true
	}
	return names, nil
}
