package deadcode

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// moduleRoot is the repository root relative to this package's directory.
// The loader covers benchmark/ too: it is a module of its own, but it calls
// into internal/ and so counts as a caller.
const moduleRoot = "../.."

// modulePath is the import path of the repository's root module.
const modulePath = "symmeter"

// buildConfig is one build the loader type-checks. The module has
// per-architecture kernels and a scalar-only noasm build, so a name may be
// referenced in one build and not another.
type buildConfig struct {
	name   string
	goarch string
	tags   []string
}

var builds = []buildConfig{
	{name: "amd64", goarch: "amd64"},
	{name: "arm64", goarch: "arm64"},
	{name: "noasm", goarch: "amd64", tags: []string{"noasm"}},
}

// modPkg is one type-checked non-test package of the repository.
type modPkg struct {
	dir   string // slash-separated, relative to moduleRoot
	types *types.Package
	info  *types.Info // Uses only
}

// program is every non-test package of the repository, type-checked for
// every build in builds. Standard-library packages are type-checked from
// source once and shared by all builds, so their objects are identical
// across builds.
type program struct {
	fset   *token.FileSet
	builds map[string][]*modPkg      // build name → packages in dir order
	std    map[string]*types.Package // import path → package
}

var (
	loadOnce   sync.Once
	loaded     *program
	loadErr    error
	parseCache = map[string]*ast.File{} // filename → file, shared by builds
)

// loadProgram type-checks the repository once per test binary.
func loadProgram(t *testing.T) *program {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = load() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func load() (*program, error) {
	dirs, err := packageDirs()
	if err != nil {
		return nil, err
	}
	p := &program{
		fset:   token.NewFileSet(),
		builds: map[string][]*modPkg{},
		std:    map[string]*types.Package{},
	}
	// The source importer reads build.Default. Without cgo it type-checks
	// the standard library's pure-Go files and needs no C toolchain.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(p.fset, "source", nil)
	for _, b := range builds {
		ctx := build.Default
		ctx.GOARCH = b.goarch
		ctx.BuildTags = b.tags
		ctx.CgoEnabled = false
		l := &loader{prog: p, ctx: &ctx, std: std, pkgs: map[string]*modPkg{}}
		for _, dir := range dirs {
			pkg, err := l.check(dir)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", b.name, err)
			}
			if pkg != nil {
				p.builds[b.name] = append(p.builds[b.name], pkg)
			}
		}
	}
	return p, nil
}

// packageDirs lists every directory under moduleRoot that may hold Go
// files, relative to moduleRoot, skipping hidden directories and testdata.
func packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != moduleRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// loader type-checks the repository's packages for one build. Imports of
// the module map to repository directories; every other import is a
// standard-library package, type-checked from source.
type loader struct {
	prog *program
	ctx  *build.Context
	std  types.Importer
	pkgs map[string]*modPkg // dir → package; nil entry: no Go files
}

func (l *loader) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		pkg, err := l.check(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("import %q: no Go files in %s", path, dir)
		}
		return pkg.types, nil
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		l.prog.std[path] = pkg
	}
	return pkg, err
}

// check type-checks the non-test files of dir that l's build selects. It
// returns nil for a directory without such files.
func (l *loader) check(dir string) (*modPkg, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		if pkg == nil {
			return nil, nil
		}
		if pkg.types == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return pkg, nil
	}
	bp, err := l.ctx.ImportDir(filepath.Join(moduleRoot, filepath.FromSlash(dir)), 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		l.pkgs[dir] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	pkg := &modPkg{dir: dir, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	l.pkgs[dir] = pkg
	var files []*ast.File
	for _, name := range bp.GoFiles {
		filename := filepath.Join(bp.Dir, name)
		f, ok := parseCache[filename]
		if !ok {
			if f, err = parser.ParseFile(l.prog.fset, filename, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			parseCache[filename] = f
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, GoVersion: "go1.24"}
	tp, err := conf.Check(path.Join(modulePath, dir), l.prog.fset, files, pkg.info)
	if err != nil {
		return nil, err
	}
	pkg.types = tp
	return pkg, nil
}

// stdPackages returns every standard-library package the program loaded,
// the module's direct imports and all they import in turn.
func (p *program) stdPackages() []*types.Package {
	var out []*types.Package
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		out = append(out, pkg)
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range p.std {
		walk(pkg)
	}
	return out
}
