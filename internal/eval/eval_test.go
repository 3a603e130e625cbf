package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"symmeter/internal/ml"
	"symmeter/internal/ml/naivebayes"
)

func TestConfusionMatrixBasics(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	cm.Add(0, 0)
	cm.Add(0, 0)
	cm.Add(0, 1)
	cm.Add(1, 1)
	if cm.Total() != 4 {
		t.Fatalf("Total = %d", cm.Total())
	}
	if got := cm.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	p, r, f1 := cm.PrecisionRecallF1(0)
	if p != 1 || math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("P/R = %v/%v", p, r)
	}
	wantF1 := 2 * 1 * (2.0 / 3) / (1 + 2.0/3)
	if math.Abs(f1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", f1, wantF1)
	}
	if !strings.Contains(cm.String(), "a") {
		t.Fatal("String should include labels")
	}
}

func TestWeightedF1(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	// Class a: 3 instances, all correct. Class b: 1 instance, wrong.
	cm.Add(0, 0)
	cm.Add(0, 0)
	cm.Add(0, 0)
	cm.Add(1, 0)
	// F1(a): p=3/4, r=1 → 6/7. F1(b): 0. Weighted: (6/7*3 + 0*1)/4.
	want := (6.0 / 7 * 3) / 4
	if got := cm.WeightedF1(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WeightedF1 = %v, want %v", got, want)
	}
}

func TestEmptyMatrix(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	if cm.Accuracy() != 0 || cm.WeightedF1() != 0 {
		t.Fatal("empty matrix scores must be 0")
	}
}

func TestPerfectAndWorstF1(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	for i := 0; i < 5; i++ {
		cm.Add(0, 0)
		cm.Add(1, 1)
	}
	if cm.WeightedF1() != 1 {
		t.Fatalf("perfect F1 = %v", cm.WeightedF1())
	}
	cm2 := NewConfusionMatrix([]string{"a", "b"})
	for i := 0; i < 5; i++ {
		cm2.Add(0, 1)
		cm2.Add(1, 0)
	}
	if cm2.WeightedF1() != 0 {
		t.Fatalf("all-wrong F1 = %v", cm2.WeightedF1())
	}
}

func twoClassDataset(t *testing.T, n int) *ml.Dataset {
	t.Helper()
	schema, err := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("s", []string{"x", "y"}),
	}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		class := i % 2
		v := class
		if rng.Float64() < 0.05 {
			v = 1 - class
		}
		d.MustAdd([]float64{float64(v)}, class)
	}
	return d
}

func TestStratifiedFolds(t *testing.T) {
	d := twoClassDataset(t, 100)
	folds, err := StratifiedFolds(d, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("len(folds) = %d", len(folds))
	}
	seen := make(map[int]bool)
	for _, fold := range folds {
		if len(fold) != 10 {
			t.Fatalf("fold size %d, want 10", len(fold))
		}
		// Stratification: each fold should have both classes, ~5 each.
		counts := [2]int{}
		for _, i := range fold {
			if seen[i] {
				t.Fatalf("instance %d in two folds", i)
			}
			seen[i] = true
			counts[d.Instances[i].Class]++
		}
		if counts[0] < 3 || counts[1] < 3 {
			t.Fatalf("fold class balance = %v", counts)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("%d instances covered, want 100", len(seen))
	}
}

func TestStratifiedFoldsErrors(t *testing.T) {
	d := twoClassDataset(t, 5)
	if _, err := StratifiedFolds(d, 1, 0); err == nil {
		t.Fatal("k<2 should error")
	}
	if _, err := StratifiedFolds(d, 10, 0); err == nil {
		t.Fatal("more folds than instances should error")
	}
}

func TestCrossValidateNaiveBayes(t *testing.T) {
	d := twoClassDataset(t, 100)
	res, err := CrossValidate(d, 10, 3, func() ml.Classifier { return naivebayes.New() })
	if err != nil {
		t.Fatal(err)
	}
	if res.F1() < 0.85 {
		t.Fatalf("CV F1 = %v on a 95%% separable problem", res.F1())
	}
	if res.Accuracy() < 0.85 {
		t.Fatalf("CV accuracy = %v", res.Accuracy())
	}
	if res.Confusion.Total() != 100 {
		t.Fatalf("every instance tested once: total = %d", res.Confusion.Total())
	}
	if res.ProcessingTime() <= 0 {
		t.Fatal("processing time must be positive")
	}
}

func TestCrossValidateDeterministicSeed(t *testing.T) {
	d := twoClassDataset(t, 60)
	a, err := CrossValidate(d, 5, 11, func() ml.Classifier { return naivebayes.New() })
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(d, 5, 11, func() ml.Classifier { return naivebayes.New() })
	if err != nil {
		t.Fatal(err)
	}
	if a.F1() != b.F1() {
		t.Fatal("same seed must reproduce the folds")
	}
}

func TestMAEAndRMSE(t *testing.T) {
	mae, err := MAE([]float64{1, 2, 3}, []float64{2, 2, 5})
	if err != nil || math.Abs(mae-1) > 1e-12 {
		t.Fatalf("MAE = %v, %v", mae, err)
	}
	rmse, err := RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || math.Abs(rmse-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v, %v", rmse, err)
	}
	if _, err := MAE(nil, nil); err == nil {
		t.Fatal("empty MAE should error")
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := RMSE([]float64{1}, nil); err == nil {
		t.Fatal("RMSE mismatch should error")
	}
}
