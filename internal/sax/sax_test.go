package sax

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/stats"
)

func TestBreakpointsKnownTable(t *testing.T) {
	// The canonical SAX table for k=4: {-0.67, 0, 0.67}.
	bps, err := Breakpoints(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-0.6744897501960817, 0, 0.6744897501960817}
	for i := range want {
		if math.Abs(bps[i]-want[i]) > 1e-9 {
			t.Fatalf("Breakpoints(4) = %v", bps)
		}
	}
	if _, err := Breakpoints(1); err == nil {
		t.Fatal("k=1 should error")
	}
}

func TestBreakpointsEquiprobable(t *testing.T) {
	// Symbols should be equally likely under standard normal data.
	e, err := NewEncoder(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[e.symbol(rng.NormFloat64())]++
	}
	for s, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.125) > 0.01 {
			t.Fatalf("symbol %d frequency %v, want ~0.125", s, frac)
		}
	}
}

func TestZNormalize(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	z := ZNormalize(xs)
	if math.Abs(stats.Mean(z)) > 1e-12 {
		t.Fatalf("mean = %v", stats.Mean(z))
	}
	if math.Abs(stats.StdDev(z)-1) > 1e-12 {
		t.Fatalf("std = %v", stats.StdDev(z))
	}
	// Constant series normalises to zeros.
	for _, v := range ZNormalize([]float64{5, 5, 5}) {
		if v != 0 {
			t.Fatal("constant series should become zeros")
		}
	}
	if len(ZNormalize(nil)) != 0 {
		t.Fatal("empty input")
	}
}

func TestPAA(t *testing.T) {
	got, err := PAA([]float64{1, 2, 3, 4, 5, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 5 {
		t.Fatalf("PAA = %v", got)
	}
	// Uneven division: 5 points, 2 segments → frames of 2 and 3.
	got, err = PAA([]float64{1, 1, 4, 4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 4 {
		t.Fatalf("uneven PAA = %v", got)
	}
	if _, err := PAA(nil, 2); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := PAA([]float64{1}, 0); err == nil {
		t.Fatal("0 segments should error")
	}
	if _, err := PAA([]float64{1}, 5); err == nil {
		t.Fatal("more segments than points should error")
	}
}

func TestEncodeWordAndString(t *testing.T) {
	e, err := NewEncoder(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A rising ramp must produce non-decreasing symbols spanning the range.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i)
	}
	w, err := e.Encode(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(w.Symbols); i++ {
		if w.Symbols[i] < w.Symbols[i-1] {
			t.Fatalf("ramp gave non-monotone word %v", w)
		}
	}
	if w.Symbols[0] != 0 || w.Symbols[3] != 3 {
		t.Fatalf("ramp should span the alphabet: %v", w)
	}
	if w.String() != "abcd" {
		t.Fatalf("String = %q, want abcd", w.String())
	}
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0, 4); err == nil {
		t.Fatal("w=0 should error")
	}
	if _, err := NewEncoder(4, 1); err == nil {
		t.Fatal("k=1 should error")
	}
}

// TestFig3NormalizationDestroysLevel demonstrates the paper's Fig. 3: a big
// consumer and a small consumer with the same *shape* get identical SAX
// words after z-normalisation, while non-normalised quantisation keeps them
// apart.
func TestFig3NormalizationDestroysLevel(t *testing.T) {
	shape := []float64{1, 1, 5, 5, 1, 1, 3, 3}
	big := make([]float64, len(shape))
	small := make([]float64, len(shape))
	for i, v := range shape {
		big[i] = v * 100  // consumer A: 100–500 W
		small[i] = v * 10 // consumer C: 10–50 W
	}
	e, err := NewEncoder(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wBig, _ := e.Encode(big)
	wSmall, _ := e.Encode(small)
	if wBig.String() != wSmall.String() {
		t.Fatalf("z-normalised words differ: %v vs %v (normalisation should erase level)",
			wBig, wSmall)
	}
	// Without normalisation (quantising absolute watts against N(0,1)
	// breakpoints makes no sense, so scale to a shared range first), the
	// words must differ. Use a shared max-scale like the paper's uniform.
	sharedScale := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = v/250 - 1 // map [0,500] roughly onto [-1,1]
		}
		return out
	}
	encodeRaw := func(xs []float64) Word {
		paa, err := PAA(xs, e.W)
		if err != nil {
			t.Fatal(err)
		}
		return e.quantise(paa)
	}
	uBig := encodeRaw(sharedScale(big))
	uSmall := encodeRaw(sharedScale(small))
	if uBig.String() == uSmall.String() {
		t.Fatalf("shared-scale words identical: %v — level information lost", uBig)
	}
}

func TestWordStringLargeAlphabet(t *testing.T) {
	w := Word{Symbols: []int{30}, K: 32}
	if w.String() != "?" {
		t.Fatalf("String = %q", w.String())
	}
}
