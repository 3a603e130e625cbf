package symbolic

import (
	"math"
	"math/rand"
	"testing"
)

func TestLearnUniform(t *testing.T) {
	// max = 800: β = {200, 400, 600} for k=4 (paper §2.2a).
	vals := []float64{100, 300, 800, 50}
	tab, err := Learn(MethodUniform, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{200, 400, 600}
	got := tab.separators
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("separators = %v, want %v", got, want)
		}
	}
	min, max := tab.min, tab.max
	if min != 0 || max != 800 {
		t.Fatalf("range = [%v,%v], want [0,800]", min, max)
	}
	if tab.Method() != MethodUniform {
		t.Fatalf("method = %v", tab.Method())
	}
}

func TestLearnMedianEqualMass(t *testing.T) {
	// 1..100: separators at quartiles; each symbol gets ~25 values.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	tab, err := Learn(MethodMedian, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, v := range vals {
		counts[tab.Encode(v).Index()]++
	}
	for i, c := range counts {
		if c < 23 || c > 27 {
			t.Fatalf("bin %d count = %d, want ~25 (counts=%v)", i, c, counts)
		}
	}
}

func TestLearnDistinctMedianIgnoresFrequency(t *testing.T) {
	// Standby-dominated data: 90% zeros. Median puts all separators at 0;
	// distinctmedian spreads them.
	vals := make([]float64, 0, 1000)
	for i := 0; i < 900; i++ {
		vals = append(vals, 0)
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, float64(i+1)*10)
	}
	med, _ := Learn(MethodMedian, vals, 4)
	dm, _ := Learn(MethodDistinctMedian, vals, 4)
	if med.separators[2] != 0 {
		t.Fatalf("median separators = %v, expected all zero", med.separators)
	}
	if dm.separators[0] <= 0 {
		t.Fatalf("distinctmedian separators = %v, expected positive", dm.separators)
	}
}

func TestLearnEquivalenceOnUniformData(t *testing.T) {
	// The paper: "if the overall distribution of the real values is
	// perfectly uniform and limited to a fixed range, these three methods
	// are equivalent". Use a dense uniform grid over (0, max].
	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i+1) / float64(n) * 1000 // (0, 1000]
	}
	u, _ := Learn(MethodUniform, vals, 8)
	m, _ := Learn(MethodMedian, vals, 8)
	d, _ := Learn(MethodDistinctMedian, vals, 8)
	for i := 0; i < 7; i++ {
		if math.Abs(u.separators[i]-m.separators[i]) > 1 ||
			math.Abs(u.separators[i]-d.separators[i]) > 1 {
			t.Fatalf("methods disagree on uniform data:\nu=%v\nm=%v\nd=%v",
				u.separators, m.separators, d.separators)
		}
	}
}

func TestLearnErrors(t *testing.T) {
	if _, err := Learn(MethodMedian, nil, 4); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := Learn(MethodMedian, []float64{1, 2}, 3); err == nil {
		t.Fatal("k=3 should error")
	}
	if _, err := Learn(MethodUniform, []float64{1, 2}, 5); err == nil {
		t.Fatal("k=5 should error for uniform")
	}
	if _, err := Learn(MethodNone, []float64{1}, 2); err == nil {
		t.Fatal("MethodNone should error")
	}
	if _, err := Learn(Method(99), []float64{1}, 2); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestMethodStringAndParse(t *testing.T) {
	for _, m := range []Method{MethodUniform, MethodMedian, MethodDistinctMedian} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v,%v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
	if MethodNone.String() != "none" || Method(42).String() == "" {
		t.Fatal("String() coverage")
	}
}

func TestRepresentativesAreBinMeans(t *testing.T) {
	vals := []float64{1, 2, 9, 10}
	tab, err := Learn(MethodMedian, vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Median separator = 5.5; bin 0 = {1,2} mean 1.5; bin 1 = {9,10} mean 9.5.
	s0 := NewSymbol(0, 1)
	s1 := NewSymbol(1, 1)
	v0, _ := tab.Value(s0)
	v1, _ := tab.Value(s1)
	if math.Abs(v0-1.5) > 1e-9 || math.Abs(v1-9.5) > 1e-9 {
		t.Fatalf("representatives = %v,%v want 1.5,9.5", v0, v1)
	}
}

// symbolEntropy returns the empirical entropy (bits) of the symbols produced
// by encoding values with tab. The paper argues median segmentation "aims to
// maximize the entropy of the generated symbols".
func symbolEntropy(tab *Table, values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	counts := make([]int, tab.K())
	for _, v := range values {
		counts[tab.Encode(v).Index()]++
	}
	var h float64
	n := float64(len(values))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

func TestMedianMaximisesEntropyOnSkewedData(t *testing.T) {
	// Log-normal data (like Fig. 2): the median table's symbol entropy must
	// beat the uniform table's, supporting the paper's entropy argument.
	rng := rand.New(rand.NewSource(21))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Exp(5.5 + 0.8*rng.NormFloat64())
	}
	med, _ := Learn(MethodMedian, vals, 16)
	uni, _ := Learn(MethodUniform, vals, 16)
	hm, hu := symbolEntropy(med, vals), symbolEntropy(uni, vals)
	if hm <= hu {
		t.Fatalf("median entropy %v <= uniform entropy %v", hm, hu)
	}
	// Median entropy should be close to the maximum log2(16) = 4.
	if hm < 3.9 {
		t.Fatalf("median entropy %v, want ~4", hm)
	}
	if symbolEntropy(&Table{alphabet: Alphabet{level: 2}}, nil) != 0 {
		t.Fatal("entropy of empty data should be 0")
	}
}

func TestLloydMaxBeatsHeuristicsOnMSE(t *testing.T) {
	// Lloyd–Max is the MSE-optimal scalar quantiser; on bimodal data it must
	// beat uniform and median on squared reconstruction error.
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 8000)
	for i := range values {
		if i%2 == 0 {
			values[i] = rng.NormFloat64()*20 + 100
		} else {
			values[i] = rng.NormFloat64()*50 + 2000
		}
	}
	mse := func(m Method) float64 {
		tab, err := Learn(m, values, 4)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range values {
			r, err := tab.Value(tab.Encode(v))
			if err != nil {
				t.Fatal(err)
			}
			d := r - v
			sum += d * d
		}
		return sum / float64(len(values))
	}
	lm, med, uni := mse(MethodLloydMax), mse(MethodMedian), mse(MethodUniform)
	if lm > med || lm > uni {
		t.Fatalf("Lloyd-Max MSE %v not best (median %v, uniform %v)", lm, med, uni)
	}
}

func TestLloydMaxMethodPlumbing(t *testing.T) {
	m, err := ParseMethod("lloydmax")
	if err != nil || m != MethodLloydMax {
		t.Fatalf("ParseMethod = %v, %v", m, err)
	}
	if MethodLloydMax.String() != "lloydmax" {
		t.Fatal("String")
	}
	tab, err := Learn(MethodLloydMax, []float64{1, 2, 3, 100, 200, 300}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Encode(2).Index() != 0 || tab.Encode(200).Index() != 1 {
		t.Fatalf("Lloyd-Max separators = %v", tab.separators)
	}
}
