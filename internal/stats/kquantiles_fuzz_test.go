package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// kQuantilesSorted is the definition KQuantiles must reproduce bit for bit,
// and the oracle of FuzzKQuantilesVsSort: quantileSorted over a
// sort.Float64s copy of xs.
func kQuantilesSorted(xs []float64, k int) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	seps := make([]float64, k-1)
	for i := 1; i < k; i++ {
		seps[i-1] = quantileSorted(sorted, float64(i)/float64(k))
	}
	return seps
}

// sameQuantile reports whether two quantiles agree: bit for bit, any NaN
// equal to any NaN, and -0 equal to +0, which sort.Float64s may order
// either way.
func sameQuantile(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// fuzzValues draws n values. distinct > 0 draws them from a palette of that
// many values, so most values repeat. NaN (two payloads), ±Inf and ±0 turn
// up in one draw in 64 each, small integers in one in 64.
func fuzzValues(rng *rand.Rand, n, distinct int) []float64 {
	draw := func() float64 {
		switch rng.Intn(64) {
		case 0:
			return math.NaN()
		case 1:
			return math.Float64frombits(0xfff0000000000001) // a negative, signalling NaN
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		case 4:
			return math.Copysign(0, -1)
		case 5:
			return 0
		case 6:
			return float64(rng.Intn(5)) // small integers: ties across draws
		default:
			return rng.NormFloat64() * math.Exp(rng.Float64()*20)
		}
	}
	xs := make([]float64, n)
	if distinct > 0 {
		palette := make([]float64, distinct)
		for i := range palette {
			palette[i] = draw()
		}
		for i := range xs {
			xs[i] = palette[rng.Intn(distinct)]
		}
		return xs
	}
	for i := range xs {
		xs[i] = draw()
	}
	return xs
}

// FuzzKQuantilesVsSort holds the selection-based KQuantiles bit-identical to
// the sorted definition, over inputs with duplicates, NaN, ±Inf and ±0, from
// a single value up to a few thousand, with k from 2 to past n.
func FuzzKQuantilesVsSort(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(14), uint8(0))     // n = 1
	f.Add(int64(2), uint16(5), uint16(254), uint8(0))    // n < k
	f.Add(int64(3), uint16(172), uint16(14), uint8(3))   // three values, many times each
	f.Add(int64(4), uint16(4000), uint16(30), uint8(0))  // past the ninther threshold
	f.Add(int64(5), uint16(4000), uint16(254), uint8(1)) // one value throughout
	f.Add(int64(6), uint16(300), uint16(2), uint8(40))   // median only
	f.Add(int64(7), uint16(17), uint16(6), uint8(2))     // just past insertion sort
	f.Fuzz(func(t *testing.T, seed int64, n, kk uint16, distinct uint8) {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%5000 + 1
		k := int(kk)%256 + 2
		xs := fuzzValues(rng, count, int(distinct)%64)
		orig := append([]float64(nil), xs...)
		got, err := KQuantiles(xs, k)
		if err != nil {
			t.Fatalf("KQuantiles(n=%d, k=%d): %v", count, k, err)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("KQuantiles modified its input at %d", i)
			}
		}
		want := kQuantilesSorted(xs, k)
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: %d separators, want %d", count, k, len(got), len(want))
		}
		for i := range want {
			if !sameQuantile(got[i], want[i]) {
				t.Fatalf("n=%d k=%d: separator %d = %v (%#x), sorted definition gives %v (%#x)",
					count, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// TestSelectRanksDepthLimit drives selectRanks with no partition budget, so
// every range takes the sort fallback the depth limit guards with.
func TestSelectRanksDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := fuzzValues(rng, 1000, 0)
	for i := range xs {
		if math.IsNaN(xs[i]) {
			xs[i] = 1
		}
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	ranks := []int{0, 1, 499, 500, 998, 999}
	selectRanks(xs, 0, len(xs), ranks, 0)
	for _, r := range ranks {
		if !sameQuantile(xs[r], want[r]) {
			t.Fatalf("rank %d = %v, want %v", r, xs[r], want[r])
		}
	}
}
