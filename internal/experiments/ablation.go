package experiments

import (
	"fmt"
	"io"
	"math"

	"symmeter/internal/symbolic"
)

// Ablation studies of two design choices — how much history the separators
// are learned from, and which quantiser learns them — runnable as
// `cmd/experiments -run ablation`.

// LearningWindowRow reports downstream classification quality for one
// separator-learning history length — the practical consequence of the
// Fig. 4 convergence claim ("the statistics start to converge after day
// one").
type LearningWindowRow struct {
	TrainDays int
	F1        float64
}

// RunLearningWindow sweeps the history length used to learn separators and
// reports the median/1h/16-symbol Naive Bayes F-measure for each.
func RunLearningWindow(seed int64, houses, days int, trainDays []int) ([]LearningWindowRow, error) {
	if len(trainDays) == 0 {
		trainDays = []int{1, 2, 4}
	}
	var rows []LearningWindowRow
	for _, td := range trainDays {
		p := NewPipeline(Config{Seed: seed, Houses: houses, Days: days, TrainDays: td})
		res, err := p.Classify(Encoding{
			Method: symbolic.MethodMedian, Window: Window1h, K: 16,
		}, ModelNaiveBayes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LearningWindowRow{TrainDays: td, F1: res.F1})
	}
	return rows, nil
}

// QuantizerRow compares separator-learning methods on pure reconstruction
// error (the quantiser view, independent of any classifier), including the
// Lloyd–Max ablation.
type QuantizerRow struct {
	Method symbolic.Method
	K      int
	// MAE and RMSE of reconstructing 15-minute window averages.
	MAE, RMSE float64
}

// RunQuantizerComparison learns each method's table from a house's two
// training days and measures reconstruction error over the following days.
func (p *Pipeline) RunQuantizerComparison(house int, ks []int) ([]QuantizerRow, error) {
	if len(ks) == 0 {
		ks = []int{4, 16}
	}
	vectors, err := p.Vectors(Window15m)
	if err != nil {
		return nil, err
	}
	var testVals []float64
	for _, v := range vectors {
		if v.House != house || v.Day < p.cfg.TrainDays {
			continue
		}
		for _, x := range v.Values {
			if !math.IsNaN(x) {
				testVals = append(testVals, x)
			}
		}
	}
	if len(testVals) == 0 {
		return nil, fmt.Errorf("experiments: no test values for house %d", house)
	}
	methods := []symbolic.Method{symbolic.MethodUniform, symbolic.MethodMedian,
		symbolic.MethodDistinctMedian, symbolic.MethodLloydMax}
	var rows []QuantizerRow
	for _, k := range ks {
		for _, m := range methods {
			table, err := p.Table(m, k, house)
			if err != nil {
				return nil, err
			}
			var absSum, sqSum float64
			for _, v := range testVals {
				r, err := table.Value(table.Encode(v))
				if err != nil {
					return nil, err
				}
				d := r - v
				if d < 0 {
					d = -d
				}
				absSum += d
				sqSum += d * d
			}
			n := float64(len(testVals))
			rows = append(rows, QuantizerRow{
				Method: m, K: k,
				MAE:  absSum / n,
				RMSE: math.Sqrt(sqSum / n),
			})
		}
	}
	return rows, nil
}

// WriteAblation renders both studies.
func WriteAblation(w io.Writer, lw []LearningWindowRow, qr []QuantizerRow) error {
	if _, err := fmt.Fprintf(w, "separator learning window (median 1h 16s, NaiveBayes):\n"); err != nil {
		return err
	}
	for _, r := range lw {
		if _, err := fmt.Fprintf(w, "  %d day(s) of history  F1 = %.2f\n", r.TrainDays, r.F1); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nquantiser reconstruction error (house 1, 15m averages):\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-16s %-4s %10s %10s\n", "method", "k", "MAE [W]", "RMSE [W]"); err != nil {
		return err
	}
	for _, r := range qr {
		if _, err := fmt.Fprintf(w, "  %-16s %-4d %10.1f %10.1f\n", r.Method, r.K, r.MAE, r.RMSE); err != nil {
			return err
		}
	}
	return nil
}
