package tree

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/ml"
)

// conjunctionDataset labels an instance "yes" iff p=1 AND q=1. Unlike XOR,
// the first split already has positive gain, so greedy gain-ratio induction
// (C4.5 semantics) can learn it.
func conjunctionDataset(t *testing.T, n int) *ml.Dataset {
	t.Helper()
	schema, err := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("p", []string{"0", "1"}),
		ml.NominalAttr("q", []string{"0", "1"}),
	}, []string{"no", "yes"})
	if err != nil {
		t.Fatal(err)
	}
	d := ml.NewDataset(schema)
	for i := 0; i < n; i++ {
		p, q := float64(i%2), float64((i/2)%2)
		class := 0
		if p == 1 && q == 1 {
			class = 1
		}
		mustAdd(d, []float64{p, q}, class)
	}
	return d
}

func TestLearnsConjunction(t *testing.T) {
	d := conjunctionDataset(t, 40)
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x    []float64
		want int
	}{
		{[]float64{0, 0}, 0}, {[]float64{0, 1}, 0},
		{[]float64{1, 0}, 0}, {[]float64{1, 1}, 1},
	} {
		if got := tr.Predict(c.x); got != c.want {
			t.Fatalf("Predict(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if tr.Depth() != 2 {
		t.Fatalf("conjunction tree depth = %d, want 2", tr.Depth())
	}
}

func TestXORHasZeroGainAndStaysLeaf(t *testing.T) {
	// Balanced XOR offers zero information gain on either attribute, so a
	// faithful greedy C4.5 refuses to split — documenting the known
	// limitation rather than hiding it.
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("p", []string{"0", "1"}),
		ml.NominalAttr("q", []string{"0", "1"}),
	}, []string{"no", "yes"})
	d := ml.NewDataset(schema)
	for i := 0; i < 40; i++ {
		p, q := float64(i%2), float64((i/2)%2)
		class := 0
		if p != q {
			class = 1
		}
		mustAdd(d, []float64{p, q}, class)
	}
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Fatalf("XOR should yield a stump under greedy gain, got %d leaves", tr.Leaves())
	}
}

func TestNumericThresholdSplit(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"lo", "hi"})
	d := ml.NewDataset(schema)
	for i := 0; i < 20; i++ {
		mustAdd(d, []float64{float64(i)}, 0)
		mustAdd(d, []float64{float64(i) + 100}, 1)
	}
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Predict([]float64{5}) != 0 || tr.Predict([]float64{105}) != 1 {
		t.Fatal("threshold split failed")
	}
	if tr.Depth() != 1 || tr.Leaves() != 2 {
		t.Fatalf("expected a single split: depth=%d leaves=%d", tr.Depth(), tr.Leaves())
	}
}

func TestNumericReusableAlongPath(t *testing.T) {
	// A three-band numeric pattern needs the same attribute twice.
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	for i := 0; i < 10; i++ {
		mustAdd(d, []float64{float64(i)}, 0)        // 0..9   -> a
		mustAdd(d, []float64{float64(i) + 100}, 1)  // 100..  -> b
		mustAdd(d, []float64{float64(i) + 1000}, 0) // 1000.. -> a
	}
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Predict([]float64{5}) != 0 || tr.Predict([]float64{105}) != 1 || tr.Predict([]float64{1005}) != 0 {
		t.Fatal("numeric attribute must be reusable at deeper nodes")
	}
}

func TestPureNodeIsLeaf(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	d := ml.NewDataset(schema)
	for i := 0; i < 10; i++ {
		mustAdd(d, []float64{float64(i)}, 0)
	}
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 || tr.Leaves() != 1 {
		t.Fatalf("pure data should give a stump: depth=%d leaves=%d", tr.Depth(), tr.Leaves())
	}
	if tr.Predict([]float64{3}) != 0 {
		t.Fatal("stump predicts majority")
	}
}

func TestFitEmptyErrors(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{ml.NumericAttr("x")}, []string{"a", "b"})
	if err := NewDefault().Fit(ml.NewDataset(schema)); err == nil {
		t.Fatal("empty training set should error")
	}
}

func TestPredictUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDefault().Predict([]float64{1})
}

func TestMissingValuesAtPrediction(t *testing.T) {
	d := conjunctionDataset(t, 40)
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// Must route through the heaviest branch without panicking.
	got := tr.Predict([]float64{math.NaN(), math.NaN()})
	if got != 0 && got != 1 {
		t.Fatalf("Predict(missing) = %d", got)
	}
}

func TestUnseenNominalValueFallsBack(t *testing.T) {
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NominalAttr("s", []string{"a", "b", "c"}),
	}, []string{"x", "y"})
	d := ml.NewDataset(schema)
	for i := 0; i < 10; i++ {
		mustAdd(d, []float64{0}, 0)
		mustAdd(d, []float64{1}, 1)
	}
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// Value "c" (index 2) never seen: lands in an empty-branch leaf carrying
	// the parent majority — a valid class either way.
	if got := tr.Predict([]float64{2}); got != 0 && got != 1 {
		t.Fatalf("Predict(unseen) = %d", got)
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	// Random labels: an unpruned tree overfits to many leaves; pruning
	// should collapse most of it.
	schema, _ := ml.NewSchema([]ml.Attribute{
		ml.NumericAttr("x1"), ml.NumericAttr("x2"),
	}, []string{"a", "b"})
	build := func(prune bool) *Classifier {
		d := ml.NewDataset(schema)
		r := rand.New(rand.NewSource(7)) // same data both times
		for i := 0; i < 200; i++ {
			mustAdd(d, []float64{r.Float64(), r.Float64()}, r.Intn(2))
		}
		tr := New(Config{MinLeaf: 2, Prune: prune, CF: 0.25})
		if err := tr.Fit(d); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	unpruned := build(false)
	pruned := build(true)
	if pruned.Leaves() >= unpruned.Leaves() {
		t.Fatalf("pruning did not shrink: %d -> %d leaves", unpruned.Leaves(), pruned.Leaves())
	}
}

func TestPruningKeepsSignal(t *testing.T) {
	// A clean pattern must survive pruning.
	d := conjunctionDataset(t, 80)
	tr := New(Config{MinLeaf: 2, Prune: true, CF: 0.25})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Predict([]float64{1, 1}) != 1 || tr.Predict([]float64{0, 0}) != 0 {
		t.Fatal("pruning destroyed a clean pattern")
	}
}

func TestRandomFeaturesMode(t *testing.T) {
	d := conjunctionDataset(t, 80)
	tr := New(Config{MinLeaf: 1, RandomFeatures: 1, Seed: 5})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// With 1 random feature per node it may need more depth, but must still
	// learn the training patterns.
	correct := 0
	for _, c := range [][3]float64{{0, 0, 0}, {1, 1, 1}, {0, 1, 0}, {1, 0, 0}} {
		if tr.Predict([]float64{c[0], c[1]}) == int(c[2]) {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("random-feature tree got %d/4 on training patterns", correct)
	}
}

func TestMaxDepthBounds(t *testing.T) {
	d := conjunctionDataset(t, 80)
	tr := New(Config{MinLeaf: 1, MaxDepth: 1, Prune: false})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 1 {
		t.Fatalf("Depth = %d, want <= 1", tr.Depth())
	}
}

func TestPredictProba(t *testing.T) {
	d := conjunctionDataset(t, 40)
	tr := NewDefault()
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := tr.PredictProba([]float64{1, 1})
	if len(p) != 2 {
		t.Fatalf("proba len = %d", len(p))
	}
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("Laplace-smoothed probabilities must be in (0,1): %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if p[1] <= p[0] {
		t.Fatalf("AND(1,1)=yes should dominate: %v", p)
	}
}

func TestAddErrs(t *testing.T) {
	// Sanity properties of the pessimistic error bound.
	if got := addErrs(0, 0, 0.25); got != 0 {
		t.Fatalf("addErrs(0,0) = %v", got)
	}
	prev := math.Inf(1)
	for _, e := range []float64{0, 1, 2, 5} {
		extra := addErrs(20, e, 0.25)
		if extra <= 0 {
			t.Fatalf("addErrs(20,%v) = %v, want > 0", e, extra)
		}
		if extra > prev+3 {
			t.Fatalf("addErrs grew implausibly: %v -> %v", prev, extra)
		}
		prev = extra
	}
	// Saturated case: e close to n.
	if got := addErrs(10, 10, 0.25); got != 0 {
		t.Fatalf("addErrs(10,10) = %v, want 0", got)
	}
}

func TestStringRendering(t *testing.T) {
	tr := NewDefault()
	if tr.String() != "tree(unfitted)" {
		t.Fatalf("String = %q", tr.String())
	}
	d := conjunctionDataset(t, 40)
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.String() == "tree(unfitted)" {
		t.Fatal("fitted tree should describe itself")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	d := conjunctionDataset(t, 80)
	a := New(Config{MinLeaf: 1, RandomFeatures: 1, Seed: 42})
	b := New(Config{MinLeaf: 1, RandomFeatures: 1, Seed: 42})
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		x := []float64{float64(i % 2), float64((i / 2) % 2)}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed must give same tree")
		}
	}
}

// mustAdd adds an instance the test builds valid by construction.
func mustAdd(d *ml.Dataset, x []float64, class int) {
	if err := d.Add(x, class); err != nil {
		panic(err)
	}
}
