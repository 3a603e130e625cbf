package svm

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearRegressionRecovery(t *testing.T) {
	// y = 3x + 2 with small noise: linear SVR should track it closely.
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := rng.Float64() * 10
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+2+rng.NormFloat64()*0.1)
	}
	s := New(Config{C: 10, Epsilon: 1e-3, Iters: 800})
	if err := s.FitRegression(xs, ys); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 5, 9} {
		got := s.PredictValue([]float64{x})
		want := 3*x + 2
		if math.Abs(got-want) > 1.0 {
			t.Fatalf("Predict(%v) = %v, want ~%v", x, got, want)
		}
	}
}

func TestMultiFeatureLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		a, b := rng.Float64()*5, rng.Float64()*5
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-b+4)
	}
	s := New(Config{C: 10, Iters: 800})
	if err := s.FitRegression(xs, ys); err != nil {
		t.Fatal(err)
	}
	got := s.PredictValue([]float64{2, 3})
	if math.Abs(got-5) > 1.2 {
		t.Fatalf("Predict = %v, want ~5", got)
	}
}

func TestConstantTarget(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{5, 5, 5, 5}
	s := New(DefaultConfig())
	if err := s.FitRegression(xs, ys); err != nil {
		t.Fatal(err)
	}
	if got := s.PredictValue([]float64{2.5}); math.Abs(got-5) > 0.5 {
		t.Fatalf("constant target: Predict = %v", got)
	}
}

func TestFitValidation(t *testing.T) {
	s := New(DefaultConfig())
	if err := s.FitRegression(nil, nil); err == nil {
		t.Fatal("empty input should error")
	}
	if err := s.FitRegression([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := s.FitRegression([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestPredictUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultConfig()).PredictValue([]float64{1})
}

func TestKernels(t *testing.T) {
	lin := LinearKernel{}
	if lin.Eval([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("linear kernel")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if s.cfg.C != 1 || s.cfg.Epsilon <= 0 || s.cfg.Kernel == nil || s.cfg.Iters <= 0 {
		t.Fatalf("defaults = %+v", s.cfg)
	}
}
