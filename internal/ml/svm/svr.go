// Package svm implements ε-insensitive support vector regression, standing
// in for Weka's SMOreg: the paper's §3.2 raw-value forecasting baseline
// ("we use support vector machine for regression to forecast (real value)
// residential level consumption"). Inputs and targets are min-max
// normalised like SMOreg; the kernel is linear unless Config names another.
//
// Training minimises the regularised squared ε-insensitive loss over the
// kernel expansion f(x) = Σ βᵢ k(xᵢ, x) + b by functional (kernelised)
// gradient descent — the same model family as SMO-based solvers (L2-SVR),
// with a simpler optimiser that is robust at the dataset sizes the paper
// uses (hundreds of instances).
package svm

import (
	"errors"
	"math"
)

// Kernel computes k(a, b).
type Kernel interface {
	Eval(a, b []float64) float64
}

// LinearKernel is the dot product (SMOreg's default polynomial of degree 1).
type LinearKernel struct{}

// Eval returns a·b.
func (LinearKernel) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Config controls SVR training.
type Config struct {
	// C is the regularisation constant (SMOreg default 1): larger C fits
	// the data more tightly.
	C float64
	// Epsilon is the insensitivity tube half-width on normalised targets
	// (SMOreg default 1e-3).
	Epsilon float64
	// Kernel defaults to linear.
	Kernel Kernel
	// Iters is the number of optimisation sweeps (default 500).
	Iters int
	// LearningRate is the initial functional-gradient step (default 1).
	LearningRate float64
}

// DefaultConfig mirrors SMOreg-era defaults.
func DefaultConfig() Config {
	return Config{C: 1, Epsilon: 1e-3, Kernel: LinearKernel{}, Iters: 500, LearningRate: 1}
}

// SVR is a trained support vector regressor.
type SVR struct {
	cfg Config
	// Training rows (normalised) retained for kernel expansion.
	xs [][]float64
	// beta are the expansion coefficients.
	beta []float64
	b    float64
	// Normalisation ranges.
	xmin, xrange []float64
	ymin, yrange float64
}

// New returns an untrained SVR.
func New(cfg Config) *SVR {
	def := DefaultConfig()
	if cfg.C <= 0 {
		cfg.C = def.C
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = def.Epsilon
	}
	if cfg.Kernel == nil {
		cfg.Kernel = def.Kernel
	}
	if cfg.Iters <= 0 {
		cfg.Iters = def.Iters
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = def.LearningRate
	}
	return &SVR{cfg: cfg}
}

// FitRegression trains on feature rows xs and targets ys.
func (s *SVR) FitRegression(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return errors.New("svm: need equal, non-zero numbers of rows and targets")
	}
	dim := len(xs[0])
	for _, x := range xs {
		if len(x) != dim {
			return errors.New("svm: ragged feature rows")
		}
	}
	s.normalise(xs, ys)
	n := len(xs)
	ny := make([]float64, n)
	for i, y := range ys {
		ny[i] = (y - s.ymin) / s.yrange
	}

	// Precompute the kernel matrix.
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := s.cfg.Kernel.Eval(s.xs[i], s.xs[j])
			gram[i][j] = v
			gram[j][i] = v
		}
	}

	s.beta = make([]float64, n)
	s.b = 0
	lambda := 1 / (s.cfg.C * float64(n))
	f := make([]float64, n)
	g := make([]float64, n)
	for t := 0; t < s.cfg.Iters; t++ {
		// f = K·beta + b
		for i := 0; i < n; i++ {
			var sum float64
			gi := gram[i]
			for j, bj := range s.beta {
				if bj != 0 {
					sum += gi[j] * bj
				}
			}
			f[i] = sum + s.b
		}
		// Gradient of the squared ε-insensitive loss ½(|r|-ε)₊² (averaged):
		// proportional to the distance outside the tube, which converges far
		// faster than the ±1 subgradient of the L1 tube at these scales.
		var gSum float64
		for i := 0; i < n; i++ {
			r := f[i] - ny[i]
			switch {
			case r > s.cfg.Epsilon:
				g[i] = r - s.cfg.Epsilon
			case r < -s.cfg.Epsilon:
				g[i] = r + s.cfg.Epsilon
			default:
				g[i] = 0
			}
			gSum += g[i]
		}
		lr := s.cfg.LearningRate / (1 + float64(t)/50)
		for i := 0; i < n; i++ {
			s.beta[i] -= lr * (g[i]/float64(n) + lambda*s.beta[i])
		}
		s.b -= lr * gSum / float64(n)
	}
	return nil
}

// normalise fits min-max ranges and stores normalised training rows.
func (s *SVR) normalise(xs [][]float64, ys []float64) {
	dim := len(xs[0])
	s.xmin = make([]float64, dim)
	s.xrange = make([]float64, dim)
	for j := 0; j < dim; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if x[j] < lo {
				lo = x[j]
			}
			if x[j] > hi {
				hi = x[j]
			}
		}
		s.xmin[j] = lo
		if hi > lo {
			s.xrange[j] = hi - lo
		} else {
			s.xrange[j] = 1
		}
	}
	ylo, yhi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		if y < ylo {
			ylo = y
		}
		if y > yhi {
			yhi = y
		}
	}
	s.ymin = ylo
	if yhi > ylo {
		s.yrange = yhi - ylo
	} else {
		s.yrange = 1
	}
	s.xs = make([][]float64, len(xs))
	for i, x := range xs {
		s.xs[i] = s.normX(x)
	}
}

// normX normalises a feature row.
func (s *SVR) normX(x []float64) []float64 {
	out := make([]float64, len(x))
	for j := range x {
		out[j] = (x[j] - s.xmin[j]) / s.xrange[j]
	}
	return out
}

// PredictValue predicts the target for a raw feature row.
func (s *SVR) PredictValue(x []float64) float64 {
	if s.beta == nil {
		panic("svm: model not fitted")
	}
	nx := s.normX(x)
	f := s.b
	for i, beta := range s.beta {
		if beta != 0 {
			f += beta * s.cfg.Kernel.Eval(s.xs[i], nx)
		}
	}
	return f*s.yrange + s.ymin
}
