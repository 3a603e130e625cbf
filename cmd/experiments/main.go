// Command experiments regenerates every table and figure of the paper's
// evaluation (§3) on the synthetic REDD-like dataset:
//
//	experiments -run fig5          # Naive Bayes F-measure sweep (Fig. 5)
//	experiments -run table1        # the full Table 1 grid
//	experiments -run all           # everything
//
// -run also takes the extensions beyond the paper's figures: compression,
// drift, clustering, privacy and ablation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"symmeter/internal/experiments"
	"symmeter/internal/symbolic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run regenerates the requested artifacts; figures print to stdout.
func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runArg = fs.String("run", "all", "which artifact to regenerate: fig1..fig9|table1|compression|drift|clustering|privacy|ablation|all (comma-separated list accepted)")
		seed   = fs.Int64("seed", 1, "dataset seed")
		houses = fs.Int("houses", 6, "number of houses")
		days   = fs.Int("days", 24, "days per house")
		quick  = fs.Bool("quick", false, "smaller dataset and no raw-1sec row (for smoke runs)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	cfg := experiments.Config{Seed: *seed, Houses: *houses, Days: *days}
	if *quick {
		cfg.Days = 10
	}
	p := experiments.NewPipeline(cfg)

	runners := map[string]func(*experiments.Pipeline, bool) error{
		"fig1":        runFig1,
		"fig2":        runFig2,
		"fig3":        runFig3,
		"fig4":        runFig4,
		"fig5":        runFig5,
		"fig6":        runFig6,
		"fig7":        runFig7,
		"fig8":        runFig8,
		"fig9":        runFig9,
		"table1":      runTable1,
		"compression": runCompression,
		"drift":       runDrift,
		"clustering":  runClustering,
		"privacy":     runPrivacy,
		"ablation":    runAblation,
	}
	names := strings.Split(*runArg, ",")
	if *runArg == "all" {
		names = []string{"fig1", "fig2", "fig3", "fig4", "compression",
			"fig5", "fig6", "fig7", "fig8", "fig9", "drift",
			"clustering", "privacy", "ablation", "table1"}
	}
	for _, name := range names {
		fn, ok := runners[name]
		if !ok {
			known := make([]string, 0, len(runners))
			for k := range runners {
				known = append(known, k)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown artifact %q; known: %s", name, strings.Join(known, " "))
		}
		if err := fn(p, *quick); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runFig1(p *experiments.Pipeline, _ bool) error {
	header("Fig. 1 — variable-length symbols by recursive range division (house 1, uniform)")
	rows, err := p.Fig1SymbolConstruction(0)
	if err != nil {
		return err
	}
	for level := 1; level <= 3; level++ {
		fmt.Printf("level %d:\n", level)
		for _, r := range rows[level] {
			refine := ""
			if len(r.ParentOf) == 2 {
				refine = fmt.Sprintf("  -> refines to %s, %s", r.ParentOf[0], r.ParentOf[1])
			}
			fmt.Printf("  %-5s (%8.1f, %8.1f] W%s\n", r.Symbol, r.Lo, r.Hi, refine)
		}
	}
	return nil
}

func runFig2(p *experiments.Pipeline, _ bool) error {
	header("Fig. 2 — distribution of power levels, house 1, 100 W bins")
	h, err := p.Fig2Histogram(0, 3)
	if err != nil {
		return err
	}
	_, err = h.WriteTo(os.Stdout)
	fmt.Printf("mode bin: %.0f W; skew: mass concentrates at low power (log-normal-like)\n", h.Mode())
	return err
}

func runFig3(p *experiments.Pipeline, _ bool) error {
	header("Fig. 3 — what per-series normalisation destroys")
	saxRes, symRes, err := experiments.Fig3Compare()
	if err != nil {
		return err
	}
	fmt.Println("SAX (z-normalised) words:")
	for _, n := range []string{"A", "B", "C", "D"} {
		fmt.Printf("  %s: %-10s nearest: %s\n", n, saxRes.Words[n], saxRes.NearestTo[n])
	}
	fmt.Println("symmeter (absolute, pooled uniform table) words:")
	for _, n := range []string{"A", "B", "C", "D"} {
		fmt.Printf("  %s: %-28s nearest: %s\n", n, symRes.Words[n], symRes.NearestTo[n])
	}
	fmt.Println("normalisation pairs big A with small C; absolute encoding keeps A with B.")
	return nil
}

func runFig4(p *experiments.Pipeline, _ bool) error {
	header("Fig. 4 — accumulative statistics, house 1, three days")
	points, err := p.Fig4AccumulativeStats(0, 3, 10000)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %10s %14s\n", "seconds", "mean", "median", "distinctmedian")
	for _, pt := range points {
		fmt.Printf("%10d %10.1f %10.1f %14.1f\n", pt.Seconds, pt.Mean, pt.Median, pt.DistinctMedian)
	}
	return nil
}

// runClassFigure renders a Fig. 5/6/7-style sweep for one model.
func runClassFigure(p *experiments.Pipeline, model experiments.ModelName, global bool) error {
	fmt.Printf("%-26s %10s %12s %10s\n", "encoding", "F-measure", "time", "instances")
	for _, enc := range experiments.EncodingGrid(global) {
		res, err := p.Classify(enc, model)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %10.2f %12s %10d\n", enc, res.F1, res.ProcTime.Round(100_000), res.Instances)
	}
	for _, enc := range experiments.RawEncodings() {
		res, err := p.Classify(enc, model)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %10.2f %12s %10d\n", enc, res.F1, res.ProcTime.Round(100_000), res.Instances)
	}
	return nil
}

func runFig5(p *experiments.Pipeline, _ bool) error {
	header("Fig. 5 — Naive Bayes over symbolic and raw data")
	return runClassFigure(p, experiments.ModelNaiveBayes, false)
}

func runFig6(p *experiments.Pipeline, _ bool) error {
	header("Fig. 6 — Random Forest over symbolic and raw data")
	return runClassFigure(p, experiments.ModelRandomForest, false)
}

func runFig7(p *experiments.Pipeline, _ bool) error {
	header("Fig. 7 — Random Forest with a single (global) lookup table")
	return runClassFigure(p, experiments.ModelRandomForest, true)
}

func runForecastFigure(p *experiments.Pipeline, model experiments.ModelName) error {
	fmt.Printf("%-15s", "series")
	for h := 0; h < p.Config().Houses; h++ {
		fmt.Printf(" %9s", fmt.Sprintf("house %d", h+1))
	}
	fmt.Println(" (MAE, W; '-' = skipped)")
	for _, m := range experiments.ForecastMethods() {
		label := m.String()
		if m == symbolic.MethodNone {
			label = "raw(SVR)"
		}
		results, err := p.ForecastAll(experiments.ForecastConfig{Method: m, Model: model})
		if err != nil {
			return err
		}
		fmt.Printf("%-15s", label)
		for _, r := range results {
			if r.Skipped {
				fmt.Printf(" %9s", "-")
			} else {
				fmt.Printf(" %9.1f", r.MAE)
			}
		}
		fmt.Println()
	}
	// Extra baselines from the load-forecasting literature the paper cites.
	arRow := make([]experiments.ForecastResult, 0, p.Config().Houses)
	naiveRow := make([]experiments.ForecastResult, 0, p.Config().Houses)
	for h := 0; h < p.Config().Houses; h++ {
		a, n, err := p.ForecastARBaseline(h, experiments.ForecastConfig{})
		if err != nil {
			return err
		}
		arRow = append(arRow, a)
		naiveRow = append(naiveRow, n)
	}
	for _, row := range []struct {
		label   string
		results []experiments.ForecastResult
	}{{"AR(24)", arRow}, {"seasonal-naive", naiveRow}} {
		fmt.Printf("%-15s", row.label)
		for _, r := range row.results {
			if r.Skipped {
				fmt.Printf(" %9s", "-")
			} else {
				fmt.Printf(" %9.1f", r.MAE)
			}
		}
		fmt.Println()
	}
	return nil
}

func runFig8(p *experiments.Pipeline, _ bool) error {
	header("Fig. 8 — forecasting MAE, Naive Bayes symbols vs raw SVR")
	return runForecastFigure(p, experiments.ModelNaiveBayes)
}

func runFig9(p *experiments.Pipeline, _ bool) error {
	header("Fig. 9 — forecasting MAE, Random Forest symbols vs raw SVR")
	return runForecastFigure(p, experiments.ModelRandomForest)
}

func runTable1(p *experiments.Pipeline, quick bool) error {
	header("Table 1 — F-measure, all methods × aggregations × alphabets × classifiers")
	fmt.Printf("%-26s", "encoding")
	for _, m := range experiments.AllModels {
		fmt.Printf(" %13s", m)
	}
	fmt.Println()
	row := func(enc experiments.Encoding, skip map[experiments.ModelName]bool) error {
		fmt.Printf("%-26s", enc)
		for _, m := range experiments.AllModels {
			if skip[m] {
				fmt.Printf(" %13s", "-*")
				continue
			}
			res, err := p.Classify(enc, m)
			if err != nil {
				return err
			}
			fmt.Printf(" %13.2f", res.F1)
		}
		fmt.Println()
		return nil
	}
	// Per-house tables, then the "+" (global) variants, like the paper's
	// column blocks; we render them as row blocks for terminal width.
	for _, enc := range experiments.EncodingGrid(false) {
		if err := row(enc, nil); err != nil {
			return err
		}
	}
	for _, enc := range experiments.EncodingGrid(true) {
		if err := row(enc, nil); err != nil {
			return err
		}
	}
	for _, enc := range experiments.RawEncodings() {
		if err := row(enc, nil); err != nil {
			return err
		}
	}
	if !quick {
		// The paper's "raw 1sec" row; Logistic is skipped there too ("this
		// values is not computed due to Java heap space issues").
		enc := experiments.Encoding{Method: symbolic.MethodNone, Window: experiments.WindowRaw1s}
		if err := row(enc, map[experiments.ModelName]bool{experiments.ModelLogistic: true}); err != nil {
			return err
		}
	}
	return nil
}

func runDrift(p *experiments.Pipeline, quick bool) error {
	header("§4 extension — seasonal drift: static vs adaptive lookup table")
	cfg := experiments.DriftConfig{Seed: p.Config().Seed}
	if quick {
		cfg.Days = 30
	}
	res, err := experiments.RunDrift(cfg)
	if err != nil {
		return err
	}
	return experiments.WriteDrift(os.Stdout, res)
}

func runClustering(p *experiments.Pipeline, _ bool) error {
	header("extension — customer segmentation as clustering (shared global table)")
	rows, err := p.RunClustering(experiments.ClusterConfig{Seed: p.Config().Seed})
	if err != nil {
		return err
	}
	return experiments.WriteClustering(os.Stdout, rows)
}

func runPrivacy(p *experiments.Pipeline, _ bool) error {
	header("extension — privacy: appliance-event detection attack vs encoding")
	rows, err := p.RunPrivacy(experiments.PrivacyConfig{Seed: p.Config().Seed})
	if err != nil {
		return err
	}
	return experiments.WritePrivacy(os.Stdout, rows)
}

func runAblation(p *experiments.Pipeline, quick bool) error {
	header("ablations — separator learning window; quantiser comparison (incl. Lloyd-Max)")
	days := p.Config().Days
	if quick {
		days = 8
	}
	lw, err := experiments.RunLearningWindow(p.Config().Seed, p.Config().Houses, days, []int{1, 2, 4})
	if err != nil {
		return err
	}
	qr, err := p.RunQuantizerComparison(0, []int{4, 16})
	if err != nil {
		return err
	}
	return experiments.WriteAblation(os.Stdout, lw, qr)
}

func runCompression(_ *experiments.Pipeline, _ bool) error {
	header("§2.3 — compression ratios over one day of 1 Hz data")
	rows, err := experiments.CompressionTable()
	if err != nil {
		return err
	}
	return experiments.WriteCompressionTable(os.Stdout, rows)
}
