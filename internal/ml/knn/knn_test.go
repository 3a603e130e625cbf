package knn

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/ml"
)

func mixedDataset(t *testing.T) *ml.Dataset {
	t.Helper()
	schema, err := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("x"),
		ml.NominalAttr("s", []string{"a", "b"}),
	}, []string{"lo", "hi"})
	if err != nil {
		t.Fatal(err)
	}
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		class := i % 2
		x := float64(class)*10 + rng.NormFloat64()
		mustAdd(d, []float64{x, float64(class)}, class)
	}
	return d
}

func TestKNNClassifies(t *testing.T) {
	d := mixedDataset(t)
	c := (&Classifier{K: 3})
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if c.Predict([]float64{0, 0}) != 0 || c.Predict([]float64{10, 1}) != 1 {
		t.Fatal("kNN failed on separated classes")
	}
}

func TestKNNProbaSumsToOne(t *testing.T) {
	d := mixedDataset(t)
	c := (&Classifier{K: 5})
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := c.PredictProba([]float64{5, 0})
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative vote: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("votes sum to %v", sum)
	}
}

func TestKNNMissingValues(t *testing.T) {
	d := mixedDataset(t)
	c := (&Classifier{K: 3})
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	got := c.Predict([]float64{math.NaN(), 1})
	if got != 0 && got != 1 {
		t.Fatalf("Predict(missing) = %d", got)
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	mustAdd(d, []float64{0}, 0)
	mustAdd(d, []float64{1}, 1)
	c := (&Classifier{K: 50})
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := c.Predict([]float64{0.1}); got != 0 {
		t.Fatalf("Predict = %d (nearest should dominate the weighted vote)", got)
	}
}

func TestKNNConstantAttribute(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("const"), ml.NumericAttr("x"),
	}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	for i := 0; i < 20; i++ {
		mustAdd(d, []float64{7, float64(i % 2)}, i%2)
	}
	c := (&Classifier{K: 3})
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if c.Predict([]float64{7, 0}) != 0 || c.Predict([]float64{7, 1}) != 1 {
		t.Fatal("zero-range attribute must not poison the metric")
	}
}

func TestKNNValidationAndPanics(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	if err := (&Classifier{K: 3}).Fit(ml.NewDataset(schema)); err == nil {
		t.Fatal("empty training set should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Classifier{K: 3}).Predict([]float64{1})
}

// mustAdd adds an instance the test builds valid by construction.
func mustAdd(d *ml.Dataset, x []float64, class int) {
	if err := d.Add(x, class); err != nil {
		panic(err)
	}
}
