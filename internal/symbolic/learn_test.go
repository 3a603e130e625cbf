package symbolic

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/stats"
)

func TestLearnUniform(t *testing.T) {
	// max = 800: β = {200, 400, 600} for k=4 (paper §2.2a).
	vals := []float64{100, 300, 800, 50}
	tab, err := Learn(MethodUniform, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{200, 400, 600}
	got := tab.Separators()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("separators = %v, want %v", got, want)
		}
	}
	min, max := tab.Range()
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
	if med.Separators()[2] != 0 {
		t.Fatalf("median separators = %v, expected all zero", med.Separators())
	}
	if dm.Separators()[0] <= 0 {
		t.Fatalf("distinctmedian separators = %v, expected positive", dm.Separators())
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
		if math.Abs(u.Separators()[i]-m.Separators()[i]) > 1 ||
			math.Abs(u.Separators()[i]-d.Separators()[i]) > 1 {
			t.Fatalf("methods disagree on uniform data:\nu=%v\nm=%v\nd=%v",
				u.Separators(), m.Separators(), d.Separators())
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
	s0, _ := ParseSymbol("0")
	s1, _ := ParseSymbol("1")
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
	d := stats.LogNormal{Mu: 5.5, Sigma: 0.8}
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = d.Rand(rng)
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
