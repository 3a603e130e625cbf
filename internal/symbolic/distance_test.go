package symbolic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func symsOf(t *testing.T, tab *Table, vals ...float64) []Symbol {
	t.Helper()
	return encodeAll(tab, vals)
}

func encodeAll(tab *Table, vals []float64) []Symbol {
	out := make([]Symbol, len(vals))
	for i, v := range vals {
		out[i] = tab.Encode(v)
	}
	return out
}

func TestHammingBasics(t *testing.T) {
	tab := mustTable(t, 4, []float64{10, 20, 30}, 0, 40)
	a := symsOf(t, tab, 5, 15, 25, 35)
	b := symsOf(t, tab, 5, 25, 25, 5)
	d, err := Hamming(a, b)
	if err != nil || d != 2 {
		t.Fatalf("Hamming = %d, %v", d, err)
	}
	if _, err := Hamming(a, b[:2]); err == nil {
		t.Fatal("length mismatch should error")
	}
	if d, _ := Hamming(a, a); d != 0 {
		t.Fatal("self distance")
	}
}

func TestSymbolGap(t *testing.T) {
	tab := mustTable(t, 4, []float64{10, 20, 30}, 0, 40)
	cases := []struct {
		a, b float64
		want float64
	}{
		{5, 5, 0},   // same bin
		{5, 15, 0},  // adjacent bins
		{5, 25, 10}, // bins 0 and 2: gap = β2 - β1 = 20-10
		{5, 35, 20}, // bins 0 and 3: β3 - β1 = 30-10
		{35, 5, 20}, // symmetric
	}
	for _, c := range cases {
		g, err := tab.SymbolGap(tab.Encode(c.a), tab.Encode(c.b))
		if err != nil || g != c.want {
			t.Fatalf("SymbolGap(%v,%v) = %v,%v want %v", c.a, c.b, g, err, c.want)
		}
	}
	if _, err := tab.SymbolGap(NewSymbol(0, 1), tab.Encode(5)); err == nil {
		t.Fatal("level mismatch should error")
	}
}

// Property: ValueDistance lower-bounds the true L1 distance of the encoded
// values — the MINDIST guarantee.
func TestValueDistanceLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		train := make([]float64, 300)
		for i := range train {
			train[i] = rng.Float64() * 1000
		}
		tab, err := Learn(MethodMedian, train, 8)
		if err != nil {
			return false
		}
		n := 20
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Float64() * 1000
			b[i] = rng.Float64() * 1000
		}
		d, err := ValueDistance(tab, encodeAll(tab, a), encodeAll(tab, b))
		if err != nil {
			return false
		}
		var l1 float64
		for i := range a {
			l1 += math.Abs(a[i] - b[i])
		}
		return d <= l1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: both distances satisfy symmetry and identity.
func TestDistanceAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		train := make([]float64, 100)
		for i := range train {
			train[i] = rng.Float64() * 100
		}
		tab, err := Learn(MethodMedian, train, 4)
		if err != nil {
			return false
		}
		n := 10
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Float64() * 100
			b[i] = rng.Float64() * 100
		}
		sa, sb := encodeAll(tab, a), encodeAll(tab, b)
		h1, _ := Hamming(sa, sb)
		h2, _ := Hamming(sb, sa)
		v1, _ := ValueDistance(tab, sa, sb)
		v2, _ := ValueDistance(tab, sb, sa)
		self, _ := ValueDistance(tab, sa, sa)
		return h1 == h2 && v1 == v2 && self == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
