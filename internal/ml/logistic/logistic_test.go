package logistic

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/ml"
)

func TestLinearlySeparableNumeric(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("x"), ml.NumericAttr("y"),
	}, []string{"neg", "pos"})
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x, y := rng.NormFloat64(), rng.NormFloat64()
		class := 0
		if x+y > 0 {
			class = 1
		}
		mustAdd(d, []float64{x, y}, class)
	}
	lg := NewDefault()
	if err := lg.Fit(d); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x, y := rng.NormFloat64(), rng.NormFloat64()
		want := 0
		if x+y > 0 {
			want = 1
		}
		if lg.Predict([]float64{x, y}) == want {
			correct++
		}
	}
	if correct < 185 {
		t.Fatalf("logistic accuracy %d/200 on separable data", correct)
	}
}

func TestMulticlassNominal(t *testing.T) {
	// Three classes keyed by a nominal attribute.
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("s", []string{"a", "b", "c"}),
		ml.NominalAttr("noise", []string{"x", "y"}),
	}, []string{"c0", "c1", "c2"})
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		class := rng.Intn(3)
		v := float64(class)
		if rng.Float64() < 0.1 {
			v = float64(rng.Intn(3))
		}
		mustAdd(d, []float64{v, float64(rng.Intn(2))}, class)
	}
	lg := NewDefault()
	if err := lg.Fit(d); err != nil {
		t.Fatal(err)
	}
	for class := 0; class < 3; class++ {
		if got := lg.Predict([]float64{float64(class), 0}); got != class {
			t.Fatalf("Predict(s=%d) = %d", class, got)
		}
	}
}

func TestProbaSumsToOne(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b", "c"})
	d := ml.NewDataset(schema)
	for i := 0; i < 30; i++ {
		mustAdd(d, []float64{float64(i % 3)}, i%3)
	}
	lg := NewDefault()
	if err := lg.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := lg.PredictProba([]float64{1})
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestMissingValuesHandled(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("x"), ml.NominalAttr("s", []string{"a", "b"}),
	}, []string{"p", "q"})
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		class := rng.Intn(2)
		x := []float64{float64(class)*2 - 1 + rng.NormFloat64()*0.2, float64(class)}
		if i%10 == 0 {
			x[0] = math.NaN()
		}
		mustAdd(d, x, class)
	}
	lg := NewDefault()
	if err := lg.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := lg.Predict([]float64{math.NaN(), 1}); got != 1 {
		t.Fatalf("Predict(missing numeric) = %d", got)
	}
}

func TestEmptyErrorsAndUnfittedPanics(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	if err := NewDefault().Fit(ml.NewDataset(schema)); err == nil {
		t.Fatal("empty training set should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDefault().Predict([]float64{0})
}

func TestZeroVarianceNumericAttr(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("const"), ml.NumericAttr("x"),
	}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	for i := 0; i < 40; i++ {
		class := i % 2
		mustAdd(d, []float64{7, float64(class)}, class)
	}
	lg := NewDefault()
	if err := lg.Fit(d); err != nil {
		t.Fatal(err)
	}
	if lg.Predict([]float64{7, 0}) != 0 || lg.Predict([]float64{7, 1}) != 1 {
		t.Fatal("constant attribute broke training")
	}
}

func TestConfigDefaults(t *testing.T) {
	lg := New(Config{})
	if lg.cfg.MaxIter != 500 || lg.cfg.Tol <= 0 {
		t.Fatalf("defaults = %+v", lg.cfg)
	}
}

// mustAdd adds an instance the test builds valid by construction.
func mustAdd(d *ml.Dataset, x []float64, class int) {
	if err := d.Add(x, class); err != nil {
		panic(err)
	}
}
