package symbolic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"symmeter/internal/timeseries"
)

func TestVerticalAverageDefinition2(t *testing.T) {
	// Definition 2: v̄_i averages n values, t̄_i = t_{i·n}.
	s := timeseries.FromValues("x", 100, 1, []float64{1, 3, 5, 7, 9, 11, 13})
	va, err := VerticalAverage(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []timeseries.Point{{T: 101, V: 2}, {T: 103, V: 6}, {T: 105, V: 10}}
	if !reflect.DeepEqual(va.Points, want) {
		t.Fatalf("VA = %v, want %v", va.Points, want)
	}
}

func TestVerticalAverageN1Identity(t *testing.T) {
	s := timeseries.FromValues("x", 0, 5, []float64{2, 4, 8})
	va, err := VerticalAverage(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va.Points, s.Points) {
		t.Fatalf("VA(S,1) = %v, want identity", va.Points)
	}
}

func TestVerticalAverageErrors(t *testing.T) {
	s := timeseries.FromValues("x", 0, 1, []float64{1})
	if _, err := VerticalAverage(s, 0); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := VerticalAverage(s, -2); err == nil {
		t.Fatal("negative n should error")
	}
	va, err := VerticalAverage(s, 5)
	if err != nil || va.Len() != 0 {
		t.Fatalf("partial-only group should yield empty series: %v %v", va, err)
	}
}

// Property: VA preserves the overall mean when n divides the length.
func TestVerticalAverageMeanPreserved(t *testing.T) {
	f := func(seed int64, nn, gg uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%10) + 1
		groups := int(gg%20) + 1
		vals := make([]float64, n*groups)
		var sum float64
		for i := range vals {
			vals[i] = rng.Float64() * 100
			sum += vals[i]
		}
		s := timeseries.FromValues("p", 0, 1, vals)
		va, err := VerticalAverage(s, n)
		if err != nil || va.Len() != groups {
			return false
		}
		var vaSum float64
		for _, p := range va.Points {
			vaSum += p.V
		}
		return math.Abs(vaSum/float64(groups)-sum/float64(len(vals))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHorizontalSeries(t *testing.T) {
	tab := mustTable(t, 4, []float64{10, 20, 30}, 0, 40)
	s := timeseries.FromValues("x", 0, 1, []float64{5, 15, 25, 35})
	ss := Horizontal(s, tab)
	if ss.Len() != 4 {
		t.Fatalf("Len = %d", ss.Len())
	}
	if got := ss.String(); got != "00 01 10 11" {
		t.Fatalf("String = %q", got)
	}
	if !reflect.DeepEqual(ss.Strings(), []string{"00", "01", "10", "11"}) {
		t.Fatalf("Strings = %v", ss.Strings())
	}
	if ss.Points[2].T != 2 {
		t.Fatal("timestamps must be preserved")
	}
}

func TestReconstructAndCenters(t *testing.T) {
	vals := []float64{5, 15, 25, 35, 5, 15}
	tab, err := Learn(MethodMedian, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := timeseries.FromValues("x", 0, 1, vals)
	ss := Horizontal(s, tab)
	rec, err := ss.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction error must be bounded by the largest bin width.
	for i := range vals {
		if math.Abs(rec.Points[i].V-vals[i]) > 20 {
			t.Fatalf("reconstruction too far at %d: %v vs %v", i, rec.Points[i].V, vals[i])
		}
	}
}

func TestSymbolSeriesCoarsen(t *testing.T) {
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i)
	}
	tab, err := Learn(MethodMedian, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := timeseries.FromValues("x", 0, 1, vals)
	fine := Horizontal(s, tab)
	coarse, err := fine.Coarsen(4)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Table.K() != 4 {
		t.Fatalf("coarse table k = %d", coarse.Table.K())
	}
	// Coarse series must equal encoding directly with the coarse table.
	direct := Horizontal(s, coarse.Table)
	for i := range coarse.Points {
		if coarse.Points[i].S != direct.Points[i].S {
			t.Fatalf("coarsen/encode mismatch at %d: %v vs %v",
				i, coarse.Points[i].S, direct.Points[i].S)
		}
	}
	if _, err := fine.Coarsen(32); err == nil {
		t.Fatal("cannot coarsen upward")
	}
}

func TestReconstructionErrorShrinksWithK(t *testing.T) {
	// Larger alphabets must reconstruct more accurately (the Fig. 5/6
	// "accuracy improves with the size of the alphabet" mechanism).
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()*0.8 + 5)
	}
	s := timeseries.FromValues("x", 0, 1, vals)
	var prev = math.Inf(1)
	for _, k := range []int{2, 4, 8, 16} {
		tab, err := Learn(MethodMedian, vals, k)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Horizontal(s, tab).Reconstruct()
		if err != nil {
			t.Fatal(err)
		}
		var mae float64
		for i := range vals {
			mae += math.Abs(rec.Points[i].V - vals[i])
		}
		mae /= float64(len(vals))
		if mae >= prev {
			t.Fatalf("MAE did not shrink at k=%d: %v >= %v", k, mae, prev)
		}
		prev = mae
	}
}
