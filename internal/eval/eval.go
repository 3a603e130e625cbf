// Package eval implements the paper's evaluation protocol: stratified
// 10-fold cross-validation, confusion matrices, the weighted F-measure
// ("the weighted harmonic mean of Precision and Recall") reported in
// Figs. 5–7 and Table 1, the MAE of Figs. 8–9, and wall-clock processing
// time.
package eval

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"symmeter/internal/ml"
)

// ConfusionMatrix counts predictions: M[actual][predicted].
type ConfusionMatrix struct {
	Classes []string
	M       [][]int
}

// NewConfusionMatrix returns a zeroed matrix over the class labels.
func NewConfusionMatrix(classes []string) *ConfusionMatrix {
	m := make([][]int, len(classes))
	for i := range m {
		m[i] = make([]int, len(classes))
	}
	return &ConfusionMatrix{Classes: classes, M: m}
}

// Add records one (actual, predicted) observation.
func (c *ConfusionMatrix) Add(actual, predicted int) {
	c.M[actual][predicted]++
}

// Total returns the number of observations.
func (c *ConfusionMatrix) Total() int {
	t := 0
	for _, row := range c.M {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Accuracy is the fraction of correct predictions.
func (c *ConfusionMatrix) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range c.M {
		correct += c.M[i][i]
	}
	return float64(correct) / float64(total)
}

// PrecisionRecallF1 returns the per-class precision, recall and F1. Classes
// with no predictions have precision 0; classes with no instances have
// recall 0 (Weka conventions).
func (c *ConfusionMatrix) PrecisionRecallF1(class int) (precision, recall, f1 float64) {
	var tp, fp, fn int
	tp = c.M[class][class]
	for other := range c.M {
		if other != class {
			fp += c.M[other][class]
			fn += c.M[class][other]
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// WeightedF1 is the class-support-weighted mean of per-class F1 — the
// "F-measure" the paper plots.
func (c *ConfusionMatrix) WeightedF1() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	var sum float64
	for class := range c.M {
		support := 0
		for _, v := range c.M[class] {
			support += v
		}
		if support == 0 {
			continue
		}
		_, _, f1 := c.PrecisionRecallF1(class)
		sum += f1 * float64(support)
	}
	return sum / float64(total)
}

// CVResult is the outcome of a cross-validation run.
type CVResult struct {
	Confusion *ConfusionMatrix
	// TrainTime and TestTime are total wall-clock across folds.
	TrainTime, TestTime time.Duration
}

// F1 is shorthand for the weighted F-measure.
func (r CVResult) F1() float64 { return r.Confusion.WeightedF1() }

// Accuracy is shorthand for overall accuracy.
func (r CVResult) Accuracy() float64 { return r.Confusion.Accuracy() }

// ProcessingTime is the total train+test wall-clock, the quantity the
// paper's secondary axis reports.
func (r CVResult) ProcessingTime() time.Duration { return r.TrainTime + r.TestTime }

// StratifiedFolds splits instance indices into k folds with approximately
// equal class proportions, shuffled by seed. Folds are as equal-sized as
// possible; every instance appears in exactly one fold.
func StratifiedFolds(d *ml.Dataset, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, errors.New("eval: need at least 2 folds")
	}
	if d.Len() < k {
		return nil, fmt.Errorf("eval: %d instances cannot fill %d folds", d.Len(), k)
	}
	rng := rand.New(rand.NewSource(seed))
	// Group indices by class, shuffle within class, then deal round-robin.
	byClass := make([][]int, d.Schema.NumClasses())
	for i, in := range d.Instances {
		byClass[in.Class] = append(byClass[in.Class], i)
	}
	folds := make([][]int, k)
	next := 0
	for _, group := range byClass {
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		for _, idx := range group {
			folds[next%k] = append(folds[next%k], idx)
			next++
		}
	}
	return folds, nil
}

// CrossValidate runs stratified k-fold cross-validation of a fresh model
// per fold. newModel must return an untrained classifier each call.
func CrossValidate(d *ml.Dataset, k int, seed int64, newModel func() ml.Classifier) (CVResult, error) {
	folds, err := StratifiedFolds(d, k, seed)
	if err != nil {
		return CVResult{}, err
	}
	res := CVResult{Confusion: NewConfusionMatrix(d.Schema.Classes)}
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		train := d.Subset(trainIdx)
		model := newModel()

		t0 := time.Now()
		if err := model.Fit(train); err != nil {
			return CVResult{}, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		res.TrainTime += time.Since(t0)

		t1 := time.Now()
		for _, i := range folds[f] {
			in := d.Instances[i]
			res.Confusion.Add(in.Class, model.Predict(in.X))
		}
		res.TestTime += time.Since(t1)
	}
	return res, nil
}

// MAE returns the mean absolute error between predictions and actuals.
func MAE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) || len(pred) == 0 {
		return 0, errors.New("eval: MAE needs equal, non-zero lengths")
	}
	var sum float64
	for i := range pred {
		sum += math.Abs(pred[i] - actual[i])
	}
	return sum / float64(len(pred)), nil
}
