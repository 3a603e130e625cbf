package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestP2Validation(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewP2Quantile(q); err == nil {
			t.Errorf("q=%v should be rejected", q)
		}
	}
	e, err := NewP2Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value() != 0 || e.count != 0 {
		t.Fatal("empty estimator should report 0")
	}
}

func TestP2SmallSamplesExact(t *testing.T) {
	e, _ := NewP2Quantile(0.5)
	for _, x := range []float64{5, 1, 3} {
		e.Add(x)
	}
	if got := e.Value(); got != 3 {
		t.Fatalf("median of {1,3,5} = %v", got)
	}
	if e.count != 3 {
		t.Fatalf("count = %d", e.count)
	}
}

func TestP2AccuracyOnDistributions(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*rand.Rand) float64
		// tol is relative to the distribution's interquartile scale.
		tol float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }, 0.05},
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64()*10 + 50 }, 0.05},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*0.8 + 5) }, 0.12},
	}
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	for _, c := range cases {
		for _, q := range quantiles {
			rng := rand.New(rand.NewSource(42))
			est, _ := NewP2Quantile(q)
			all := make([]float64, 0, 50000)
			for i := 0; i < 50000; i++ {
				x := c.gen(rng)
				est.Add(x)
				all = append(all, x)
			}
			exact := quantile(all, q)
			scale := quantile(all, 0.75) - quantile(all, 0.25)
			if err := math.Abs(est.Value() - exact); err > c.tol*scale {
				t.Errorf("%s q=%v: P² %v vs exact %v (err %v, scale %v)",
					c.name, q, est.Value(), exact, err, scale)
			}
		}
	}
}

func TestP2MonotoneAcrossQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ests := make([]*P2Quantile, 0, 3)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		e, _ := NewP2Quantile(q)
		ests = append(ests, e)
	}
	for i := 0; i < 20000; i++ {
		x := math.Exp(rng.NormFloat64())
		for _, e := range ests {
			e.Add(x)
		}
	}
	if !(ests[0].Value() < ests[1].Value() && ests[1].Value() < ests[2].Value()) {
		t.Fatalf("quantile estimates not ordered: %v %v %v",
			ests[0].Value(), ests[1].Value(), ests[2].Value())
	}
}

func TestP2ConstantStream(t *testing.T) {
	e, _ := NewP2Quantile(0.5)
	for i := 0; i < 100; i++ {
		e.Add(7)
	}
	if e.Value() != 7 {
		t.Fatalf("constant stream median = %v", e.Value())
	}
}

func TestP2SortedInput(t *testing.T) {
	// Monotone input is a known stress case for online quantiles.
	e, _ := NewP2Quantile(0.5)
	n := 10001
	for i := 0; i < n; i++ {
		e.Add(float64(i))
	}
	exact := float64(n-1) / 2
	if math.Abs(e.Value()-exact) > float64(n)*0.05 {
		t.Fatalf("sorted input median = %v, want ~%v", e.Value(), exact)
	}
}
