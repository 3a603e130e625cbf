package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkDecl is the part of BENCHMARK.json -compare and the tests read.
type benchmarkDecl struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadDecl finds BENCHMARK.json from the repository root or from this
// directory.
func loadDecl() (*benchmarkDecl, error) {
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var d benchmarkDecl
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// loadResults reads a -json file: values per workload and metric, over the
// untraced runs in it.
func loadResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var res runResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Trace {
			continue // end-to-end metrics are compared with tracing off
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			out[res.Workload][name] = append(out[res.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// comparison is side B judged against side A for one metric.
type comparison struct {
	verdict          string
	aMed, bMed       float64
	aSpread, bSpread float64 // (Q3−Q1)/median
}

// compare calls B worse or better when the medians differ by more than the
// bound, and unresolved when either side's own spread is wider than the bound.
func compare(m declMetric, a, b []float64) comparison {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	c := comparison{verdict: "same", aMed: amed, bMed: bmed, aSpread: (aq3 - aq1) / amed, bSpread: (bq3 - bq1) / bmed}
	change := (bmed - amed) / amed // relative to A's median
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case c.aSpread > m.Bound || c.bSpread > m.Bound:
		c.verdict = "unresolved"
	case change > m.Bound:
		c.verdict = "worse"
	case change < -m.Bound:
		c.verdict = "better"
	}
	return c
}

// compareFiles prints one row per workload × end-to-end metric. It fails if
// any row is worse or unresolved.
func compareFiles(out io.Writer, pathA, pathB string) error {
	decl, err := loadDecl()
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s, B = %s; medians, spread = (Q3−Q1)/median, change = B's median against A's\n", pathA, pathB)
	fmt.Fprintf(out, "%-14s %-26s %-10s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "verdict", "A", "B", "B/A", "spreadA", "spreadB", "bound")
	bad := 0
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(out, "%-14s %-26s %-10s (A has %d runs, B has %d; need 2 each)\n", wl.Name, m.Name, "missing", len(va), len(vb))
				bad++
				continue
			}
			c := compare(m, va, vb)
			if c.verdict == "worse" || c.verdict == "unresolved" {
				bad++
			}
			fmt.Fprintf(out, "%-14s %-26s %-10s %14.4f %14.4f %8.4f %7.2f%% %7.2f%% %5.1f%%  %s, n=%d/%d\n",
				wl.Name, m.Name, c.verdict, c.aMed, c.bMed, c.bMed/c.aMed, c.aSpread*100, c.bSpread*100, m.Bound*100, m.Unit, len(va), len(vb))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse, unresolved or missing", bad)
	}
	return nil
}
