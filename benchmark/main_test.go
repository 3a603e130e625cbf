package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesCode holds BENCHMARK.json to the tables the code
// emits from: same workloads, same metrics, same units, directions, bounds.
func TestDeclarationMatchesCode(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if wl, ok := findWorkload(w.Name); !ok || wl.why != w.Why {
			t.Errorf("workload %q: declared why %q, code has %q", w.Name, w.Why, wl.why)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("declared workloads %v, code runs %v", names, workloadNames())
	}
	check := func(kind string, declared []declMetric, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: %d declared, %d in code", kind, len(declared), len(specs))
			return
		}
		for i, d := range declared {
			s := specs[i]
			if d.Name != s.name || d.Unit != s.unit || d.Better != s.better || d.Bound != s.bound {
				t.Errorf("%s[%d]: declared %+v, code has %+v", kind, i, d, s)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is not a valid metric name", kind, d.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if !slices.Contains(decl.Paths, "benchmark") {
		t.Errorf("paths %v do not declare this directory", decl.Paths)
	}
}

// TestSmoke runs every workload at -quick scale through the command's own
// entry point, traced and untraced, and checks the result line the driver
// reads: every declared metric, with its unit, nothing else; all output
// checks passing; a trace file whose child spans sit inside their parents.
func TestSmoke(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range decl.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			outDir := t.TempDir()
			for _, traced := range []bool{false, true} {
				declared, flag := decl.EndToEnd, "0"
				if traced {
					declared, flag = decl.PerLayer, "1"
				}
				var out bytes.Buffer
				err := mainErr([]string{
					"-workload", wl.Name, "-quick", "-seconds", "0.3", "-seed", "7", "-trace", flag,
					"-data-root", t.TempDir(), "-out", outDir,
				}, &out)
				if err != nil {
					t.Fatalf("trace %s: %v\n%s", flag, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got driverResult
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("trace %s: last line is not the result object: %v\n%s", flag, err, lines[len(lines)-1])
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("trace %s: correct=%v attempted=%d failed=%d\n%s", flag, got.Correct, got.Attempted, got.Failed, out.String())
				}
				if len(got.Metrics) != len(declared) {
					t.Errorf("trace %s: %d metrics emitted, %d declared", flag, len(got.Metrics), len(declared))
				}
				for _, m := range declared {
					v, ok := got.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("trace %s: metric %s: emitted %+v (present=%v), declared unit %q", flag, m.Name, v, ok, m.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, v.Value)
					}
				}
			}
			checkTraceFile(t, filepath.Join(outDir, "trace_"+wl.Name+".json"))
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[int]span{}
	roots := map[string]int{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.End < s.Start || s.Name == "" {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			roots[s.Name]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
	}
	if roots[spanAppend] == 0 || roots[spanQuery+"window"] == 0 {
		t.Errorf("trace has roots %v; want ingest and window-query ops", roots)
	}
}

// TestSeedDiscipline: the seed is the only source of variation in what the
// stack is fed.
func TestSeedDiscipline(t *testing.T) {
	hash := func(seed int64) uint64 {
		in, err := genInputs(seed, 16, quickScale)
		if err != nil {
			t.Fatal(err)
		}
		return in.opsHash(2)
	}
	a, again, b := hash(1), hash(1), hash(2)
	if a != again {
		t.Errorf("seed 1 gave op-sequence hashes %016x and %016x", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 gave the same op-sequence hash %016x", a)
	}
}

// TestHistogramOracle checks the closed form the oracle uses against adding
// the days up one by one.
func TestHistogramOracle(t *testing.T) {
	in, err := genInputs(3, 5, quickScale)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < in.meters; m++ {
		for _, n := range []int{0, 1, 3, 4, 9, 41} {
			want := make([]uint64, inputK)
			h := in.house(m)
			for j := 0; j < n; j++ {
				for i, c := range h.hists[(in.rot[m]+j)%len(h.days)] {
					want[i] += c
				}
			}
			if got := in.histogram(m, n); !slices.Equal(got, want) {
				t.Errorf("meter %d, %d days: histogram %v, want %v", m, n, got, want)
			}
		}
	}
}

// TestOnlySutImportsTheRepo keeps the pinned surface in one file.
func TestOnlySutImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"symmeter/`) && name != "sut.go" {
				t.Errorf("%s imports %s; only sut.go may call into the repository", name, imp.Path.Value)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1}, -1.25, 5.5, 12.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	lower := declMetric{Name: "lat", Better: "lower", Bound: 0.10}
	higher := declMetric{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	for _, c := range []struct {
		m    declMetric
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(101), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, []float64{60, 100, 140, 80, 120}, steady(100), "unresolved"},
	} {
		if got := compare(c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("compare(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}
