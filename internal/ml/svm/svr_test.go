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

func TestRBFNonlinear(t *testing.T) {
	// y = sin(x): needs the RBF kernel.
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 2 * math.Pi
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x))
	}
	s := New(Config{C: 50, Epsilon: 0.01, Kernel: RBFKernel{Gamma: 10}, Iters: 1500})
	if err := s.FitRegression(xs, ys); err != nil {
		t.Fatal(err)
	}
	var mae float64
	n := 0
	for x := 0.3; x < 2*math.Pi-0.3; x += 0.4 {
		mae += math.Abs(s.PredictValue([]float64{x}) - math.Sin(x))
		n++
	}
	mae /= float64(n)
	if mae > 0.25 {
		t.Fatalf("RBF SVR MAE on sin = %v", mae)
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
	rbf := RBFKernel{Gamma: 1}
	if got := rbf.Eval([]float64{0}, []float64{0}); got != 1 {
		t.Fatalf("rbf self = %v", got)
	}
	if got := rbf.Eval([]float64{0}, []float64{1}); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("rbf(0,1) = %v", got)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if s.cfg.C != 1 || s.cfg.Epsilon <= 0 || s.cfg.Kernel == nil || s.cfg.Iters <= 0 {
		t.Fatalf("defaults = %+v", s.cfg)
	}
}
