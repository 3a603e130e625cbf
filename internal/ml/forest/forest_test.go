package forest

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/ml"
)

// noisyDataset builds a two-class problem where several weak nominal
// features each carry partial signal — the setting where forests beat
// single trees.
func noisyDataset(t *testing.T, n int, seed int64) *ml.Dataset {
	t.Helper()
	attrs := make([]ml.Attribute, 8)
	for i := range attrs {
		attrs[i] = ml.NominalAttr("s", []string{"0", "1"})
	}
	schema, err := ml.NewSchema(attrs, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		class := rng.Intn(2)
		x := make([]float64, 8)
		for j := range x {
			// Each feature agrees with the class 75% of the time.
			if rng.Float64() < 0.75 {
				x[j] = float64(class)
			} else {
				x[j] = float64(1 - class)
			}
		}
		mustAdd(d, x, class)
	}
	return d
}

func TestForestLearnsNoisyProblem(t *testing.T) {
	train := noisyDataset(t, 400, 1)
	test := noisyDataset(t, 200, 2)
	f := New(Config{Trees: 15, Seed: 3})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, in := range test.Instances {
		if f.Predict(in.X) == in.Class {
			correct++
		}
	}
	if correct < 170 { // Bayes-optimal is ~98%; demand >= 85%
		t.Fatalf("forest accuracy %d/200", correct)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	d := noisyDataset(t, 100, 5)
	a, b := New(Config{Trees: 5, Seed: 9}), New(Config{Trees: 5, Seed: 9})
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances[:20] {
		if a.Predict(in.X) != b.Predict(in.X) {
			t.Fatal("same seed must reproduce the forest")
		}
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	d := noisyDataset(t, 100, 5)
	f := New(Config{})
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := f.PredictProba(d.Instances[0].X)
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestForestEmptyErrors(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	if err := New(Config{}).Fit(ml.NewDataset(schema)); err == nil {
		t.Fatal("empty training set should error")
	}
}

func TestForestUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}).Predict([]float64{0})
}

func TestForestDefaultsApplied(t *testing.T) {
	f := New(Config{Trees: -1})
	if f.cfg.Trees != 10 {
		t.Fatalf("Trees default = %d", f.cfg.Trees)
	}
}

func TestForestBeatsStumpOnInteraction(t *testing.T) {
	// Numeric two-moon-ish interaction: forest handles it.
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("x"), ml.NumericAttr("y"),
	}, []string{"in", "out"})
	d := ml.NewDataset(schema)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		x, y := rng.Float64()*2-1, rng.Float64()*2-1
		class := 0
		if x*x+y*y > 0.5 {
			class = 1
		}
		mustAdd(d, []float64{x, y}, class)
	}
	f := New(Config{Trees: 20, Seed: 1})
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*2-1, rng.Float64()*2-1
		want := 0
		if x*x+y*y > 0.5 {
			want = 1
		}
		if f.Predict([]float64{x, y}) == want {
			correct++
		}
	}
	if correct < 160 {
		t.Fatalf("forest got %d/200 on circular boundary", correct)
	}
}

// mustAdd adds an instance the test builds valid by construction.
func mustAdd(d *ml.Dataset, x []float64, class int) {
	if err := d.Add(x, class); err != nil {
		panic(err)
	}
}
