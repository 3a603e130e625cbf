package naivebayes

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/ml"
)

func nominalDataset(t *testing.T) *ml.Dataset {
	t.Helper()
	// The classic weather-style toy: class 0 prefers value 0, class 1
	// prefers value 2.
	schema, err := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("sym1", []string{"a", "b", "c"}),
		ml.NominalAttr("sym2", []string{"a", "b", "c"}),
	}, []string{"h1", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	d := ml.NewDataset(schema)
	for i := 0; i < 20; i++ {
		mustAdd(d, []float64{0, float64(i % 2)}, 0)
		mustAdd(d, []float64{2, float64(2 - i%2)}, 1)
	}
	return d
}

func TestFitEmptyErrors(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	if err := New().Fit(ml.NewDataset(schema)); err == nil {
		t.Fatal("empty training set should error")
	}
}

func TestNominalClassification(t *testing.T) {
	d := nominalDataset(t)
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := nb.Predict([]float64{0, 0}); got != 0 {
		t.Fatalf("Predict([0,0]) = %d, want 0", got)
	}
	if got := nb.Predict([]float64{2, 2}); got != 1 {
		t.Fatalf("Predict([2,2]) = %d, want 1", got)
	}
}

func TestGaussianClassification(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x"), ml.NumericAttr("y")},
		[]string{"lo", "hi"})
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		mustAdd(d, []float64{rng.NormFloat64() + 0, rng.NormFloat64() + 0}, 0)
		mustAdd(d, []float64{rng.NormFloat64() + 5, rng.NormFloat64() + 5}, 1)
	}
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if nb.Predict([]float64{rng.NormFloat64(), rng.NormFloat64()}) == 0 {
			correct++
		}
		if nb.Predict([]float64{rng.NormFloat64() + 5, rng.NormFloat64() + 5}) == 1 {
			correct++
		}
	}
	if correct < 190 {
		t.Fatalf("accuracy %d/200 on well-separated Gaussians", correct)
	}
}

func TestMissingValuesIgnored(t *testing.T) {
	d := nominalDataset(t)
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	// All-missing instance falls back to the prior (balanced here), and must
	// not panic or return out-of-range classes.
	got := nb.Predict([]float64{math.NaN(), math.NaN()})
	if got != 0 && got != 1 {
		t.Fatalf("Predict(all missing) = %d", got)
	}
	// Training with missing values must not crash either.
	mustAdd(d, []float64{math.NaN(), 0}, 0)
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
}

func TestLaplaceSmoothingUnseenValue(t *testing.T) {
	// A value never seen in training must not zero out the posterior.
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("s", []string{"a", "b", "c"}),
	}, []string{"x", "y"})
	d := ml.NewDataset(schema)
	for i := 0; i < 5; i++ {
		mustAdd(d, []float64{0}, 0)
		mustAdd(d, []float64{1}, 1)
	}
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	ll := nb.logLikelihoods([]float64{2}) // value "c" unseen
	if math.IsNaN(ll[0]) || math.IsInf(ll[0], -1) || math.IsInf(ll[1], -1) {
		t.Fatalf("smoothing failed: %v", ll)
	}
}

func TestSingleValuedNumericAttribute(t *testing.T) {
	// Zero-variance attribute: the std floor must avoid division by zero.
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	for i := 0; i < 4; i++ {
		mustAdd(d, []float64{1}, 0)
		mustAdd(d, []float64{2}, 1)
	}
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]float64{1}) != 0 || nb.Predict([]float64{2}) != 1 {
		t.Fatal("exact-value prediction failed")
	}
}

func TestClassWithNoNumericValues(t *testing.T) {
	// One class has only missing numerics; prediction must stay finite.
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	mustAdd(d, []float64{1}, 0)
	mustAdd(d, []float64{1.5}, 0)
	mustAdd(d, []float64{math.NaN()}, 1)
	mustAdd(d, []float64{math.NaN()}, 1)
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	ll := nb.logLikelihoods([]float64{1.2})
	if math.IsNaN(ll[0]) || math.IsNaN(ll[1]) {
		t.Fatalf("NaN log-likelihoods: %v", ll)
	}
	if nb.Predict([]float64{1.2}) != 0 {
		t.Fatal("class with data should win near its mean")
	}
}

func TestPriorsInfluenceTies(t *testing.T) {
	// With a non-informative attribute, the majority class wins.
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("s", []string{"a"}),
	}, []string{"rare", "common"})
	d := ml.NewDataset(schema)
	mustAdd(d, []float64{0}, 0)
	for i := 0; i < 9; i++ {
		mustAdd(d, []float64{0}, 1)
	}
	nb := New()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]float64{0}) != 1 {
		t.Fatal("prior should favour the common class")
	}
}

// mustAdd adds an instance the test builds valid by construction.
func mustAdd(d *ml.Dataset, x []float64, class int) {
	if err := d.Add(x, class); err != nil {
		panic(err)
	}
}
