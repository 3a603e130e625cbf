package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, f := range map[string]func([]float64) float64{
		"Mean": Mean, "Variance": Variance, "StdDev": StdDev,
		"Min": Min, "Max": Max,
	} {
		if got := f(nil); !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

// quantile is the type-7 q-quantile of xs, computed over a sorted copy.
func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{42}, 0.7); got != 42 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := KQuantiles(xs, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Fatal("KQuantiles mutated input")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := quantile([]float64{5, 1, 3}, 0.5); got != 3 {
		t.Fatalf("odd median = %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestKQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	seps, err := KQuantiles(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{25.75, 50.5, 75.25}
	for i := range seps {
		if !almostEq(seps[i], want[i], 1e-9) {
			t.Fatalf("seps = %v, want %v", seps, want)
		}
	}
	if _, err := KQuantiles(nil, 4); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := KQuantiles(xs, 1); err == nil {
		t.Fatal("expected error on k < 2")
	}
}

func TestDistinct(t *testing.T) {
	got := Distinct([]float64{3, 1, 3, 2, 1, 1})
	if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("Distinct = %v", got)
	}
	if Distinct(nil) != nil {
		t.Fatal("Distinct(nil) should be nil")
	}
}

func TestKQuantilesDistinctAvoidsFrequencyBias(t *testing.T) {
	// 97 copies of 0 plus {100, 200, 300}: plain quantiles put all separators
	// at 0, distinct quantiles spread them over the value range.
	xs := make([]float64, 0, 100)
	for i := 0; i < 97; i++ {
		xs = append(xs, 0)
	}
	xs = append(xs, 100, 200, 300)
	plain, err := KQuantiles(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != 0 || plain[1] != 0 || plain[2] != 0 {
		t.Fatalf("plain quantiles = %v, want all 0", plain)
	}
	dist, err := KQuantilesDistinct(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(dist[0] > 0 && dist[1] > dist[0] && dist[2] > dist[1]) {
		t.Fatalf("distinct quantiles = %v, want strictly increasing > 0", dist)
	}
}

func TestKQuantilesDistinctEqualWhenAllDistinct(t *testing.T) {
	// The paper: "If the real values have enough precision to always be
	// different this becomes equivalent to median".
	xs := []float64{5, 9, 1, 7, 3, 8, 2, 6, 4, 10}
	a, _ := KQuantiles(xs, 5)
	b, _ := KQuantilesDistinct(xs, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("median %v != distinctmedian %v on all-distinct data", a, b)
	}
}

// Property: KQuantiles separators are non-decreasing and within [min, max].
func TestKQuantilesProperty(t *testing.T) {
	f := func(seed int64, n uint8, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%200) + 1
		k := int(kk%15) + 2
		xs := make([]float64, count)
		for i := range xs {
			xs[i] = rng.Float64() * 1e4
		}
		seps, err := KQuantiles(xs, k)
		if err != nil || len(seps) != k-1 {
			return false
		}
		lo, hi := Min(xs), Max(xs)
		for i, s := range seps {
			if s < lo || s > hi {
				return false
			}
			if i > 0 && s < seps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 5, 9.999, 10, 49.999, 50, -1, math.NaN()} {
		h.Add(x)
	}
	if h.Counts[0] != 3 {
		t.Fatalf("bin0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Over != 1 || h.Under != 1 {
		t.Fatalf("over/under = %d/%d", h.Over, h.Under)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("in-range total = %d", total)
	}
	if h.Mode() != 0 {
		t.Fatalf("Mode = %v", h.Mode())
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	for _, bad := range []func(){
		func() { NewHistogram(0, 0, 5) },
		func() { NewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestAccumulativeMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var acc Accumulative
	var all []float64
	for i := 0; i < 5000; i++ {
		x := math.Floor(rng.Float64()*50) * 10 // many duplicates
		acc.Add(x)
		all = append(all, x)
		if i%997 == 0 {
			p := acc.Snapshot()
			if !almostEq(p.Mean, Mean(all), 1e-9) {
				t.Fatalf("at %d: mean %v != %v", i, p.Mean, Mean(all))
			}
			if !almostEq(p.Median, quantile(all, 0.5), 1e-9) {
				t.Fatalf("at %d: median %v != %v", i, p.Median, quantile(all, 0.5))
			}
			if !almostEq(p.DistinctMedian, quantile(Distinct(all), 0.5), 1e-9) {
				t.Fatalf("at %d: distinctmedian %v != %v", i, p.DistinctMedian, quantile(Distinct(all), 0.5))
			}
			if p.Count != i+1 {
				t.Fatalf("count %d != %d", p.Count, i+1)
			}
		}
	}
}

func TestAccumulativeEmpty(t *testing.T) {
	var acc Accumulative
	p := acc.Snapshot()
	if p.Count != 0 || p.Mean != 0 || p.Median != 0 {
		t.Fatalf("empty snapshot = %+v", p)
	}
}

func TestAccumulativeInterleavedSnapshots(t *testing.T) {
	var acc Accumulative
	acc.Add(3)
	if acc.Snapshot().Median != 3 {
		t.Fatal("median of {3}")
	}
	acc.Add(1)
	acc.Add(2)
	if got := acc.Snapshot().Median; got != 2 {
		t.Fatalf("median of {1,2,3} = %v", got)
	}
	acc.Add(10)
	p := acc.Snapshot()
	if p.Median != 2.5 || p.Count != 4 {
		t.Fatalf("snapshot = %+v", p)
	}
}

func TestNormInvRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-5, 0.01, 0.02425, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97575, 0.99, 1 - 1e-5} {
		x := NormInv(p)
		back := normCDF(x)
		if !almostEq(back, p, 1e-12) {
			t.Errorf("normCDF(NormInv(%g)) = %g", p, back)
		}
	}
	if NormInv(0.5) != 0 {
		t.Fatalf("NormInv(0.5) = %v", NormInv(0.5))
	}
	if !math.IsInf(NormInv(0), -1) || !math.IsInf(NormInv(1), 1) {
		t.Fatal("NormInv boundary values")
	}
	if !math.IsInf(NormInv(math.NaN()), -1) {
		t.Fatal("NormInv(NaN) should be -Inf (treated as <=0)")
	}
}

func TestNormInvKnownBreakpoints(t *testing.T) {
	// SAX alphabet-4 breakpoints: -0.6745, 0, 0.6745.
	if got := NormInv(0.25); !almostEq(got, -0.6744897501960817, 1e-9) {
		t.Fatalf("NormInv(0.25) = %v", got)
	}
	if got := NormInv(0.75); !almostEq(got, 0.6744897501960817, 1e-9) {
		t.Fatalf("NormInv(0.75) = %v", got)
	}
}

// normCDF is the standard normal cumulative distribution function, the
// oracle NormInv is checked against.
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
