// Command benchmark is the repository's end-to-end benchmark: it assembles
// the stack cmd/serve does inside this process, drives it only through
// pkg/client over loopback TCP, checks every answer, and prints each metric
// by name with its unit. BENCHMARK.json at the repository root declares it;
// README.md explains the workloads, the metrics and the trace.
//
//	go run . -workload ingest_group -seed 1 -seconds 15 -trace 0   # one run, as the driver does
//	go run .                                                      # all four workloads, traced
//	go run . -compare a.jsonl b.jsonl                             # two result sets against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect reports that a run finished but an output check failed.
var errIncorrect = errors.New("output checks failed")

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+"; empty runs all of them, traced")
		seed     = fs.Int64("seed", 1, "the only source of variation: dataset, meter rotation, query sequence")
		seconds  = fs.Float64("seconds", 15, "timed seconds per run")
		trace    = fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics; 0 reports the end-to-end metrics")
		quick    = fs.Bool("quick", false, "smoke-test scale: 16 meters, one set-up, 200 traced ops")
		dataRoot = fs.String("data-root", filepath.Join(".bench_build", "data"), "where data directories go (removed on exit)")
		outDir   = fs.String("out", defaultOutDir(), "where trace_<workload>.json goes")
		jsonl    = fs.String("json", "", "append each run's full result to this file, one JSON object per line")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments against BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	todo := workloads
	traced := *trace != 0
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		todo = []workload{wl}
	} else {
		traced = true
	}

	incorrect := false
	var last *runResult
	for _, wl := range todo {
		fmt.Fprintf(out, "== %s (seed %d, %.4g s, trace %v) — %s\n", wl.name, *seed, *seconds, traced, wl.why)
		res, err := runWorkload(runConfig{
			wl: wl, seed: *seed, seconds: *seconds, trace: traced, quick: *quick,
			dataRoot: *dataRoot, outDir: *outDir, log: out,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := checkComplete(res); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		report(out, res)
		if *jsonl != "" {
			if err := appendJSONLine(*jsonl, res); err != nil {
				return err
			}
		}
		incorrect = incorrect || !res.Correct
		last = res
	}
	if *name != "" {
		// The driver's contract: the last line is the one run's result.
		if err := json.NewEncoder(out).Encode(driverLine(last)); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// defaultOutDir is benchmark/out whether the command is run from the
// repository root or from this directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// checkComplete makes a missing or non-finite metric a failure of the
// benchmark itself. Only a traced run has every per-layer metric.
func checkComplete(res *runResult) error {
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok && res.Trace {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	return nil
}

// report prints every metric the run produced, by name, with unit and
// sample count.
func report(out io.Writer, res *runResult) {
	e := res.Env
	fmt.Fprintf(out, "  env: nproc=%d GOMAXPROCS=%d callers=%d (closed loop) %s kernels=%s seed=%d ops_hash=%s\n",
		e.NProc, e.GOMAXPROCS, e.Callers, e.Go, e.KernelPath, res.Seed, res.OpsHash)
	fmt.Fprintln(out, "  end-to-end (tracing off):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "    %-34s %14.4f %-6s n=%d  (%s is better, bound %.0f %%)\n",
			m.name, res.Metrics[m.name], m.unit, res.Samples[m.name], m.better, m.bound*100)
	}
	fmt.Fprintln(out, "  per-layer:")
	for _, m := range perLayer {
		v, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "    %-34s %14.4f %-6s n=%d\n", m.name, v, m.unit, res.Samples[m.name])
	}
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(out, "  output checks: %d ops attempted, %d failed (failed_ops_share %.6f)\n", res.Attempted, res.Failed, share)
	for _, why := range res.Reasons {
		fmt.Fprintf(out, "    FAILED: %s\n", why)
	}
}

// driverMetric and driverResult are the result line the driver reads.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func driverLine(res *runResult) driverResult {
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	d := driverResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, m := range specs {
		d.Metrics[m.name] = driverMetric{Value: res.Metrics[m.name], Unit: m.unit}
	}
	return d
}

func appendJSONLine(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(res)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
