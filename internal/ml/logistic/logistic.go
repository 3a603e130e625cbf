// Package logistic implements multinomial logistic regression with L2
// (ridge) regularisation, standing in for Weka's Logistic in Table 1.
// Nominal attributes are one-hot encoded; numeric attributes are
// standardised. Training uses full-batch gradient descent with backtracking
// step control, which converges reliably at the dataset sizes the paper
// evaluates (hundreds of instances).
package logistic

import (
	"math"

	"symmeter/internal/ml"
)

// Config controls training.
type Config struct {
	// Ridge is the L2 penalty (Weka default 1e-8).
	Ridge float64
	// MaxIter bounds gradient steps.
	MaxIter int
	// Tol stops early when the gradient norm falls below it.
	Tol float64
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config {
	return Config{Ridge: 1e-8, MaxIter: 500, Tol: 1e-6}
}

// Classifier is a trained multinomial logistic model.
type Classifier struct {
	cfg    Config
	schema *ml.Schema
	// enc maps raw attribute vectors to the dense one-hot design row.
	enc *encoder
	// w[c][j] are the weights for class c over encoded feature j (the last
	// class is the reference with implicit zero weights, like Weka).
	w [][]float64
}

// New returns an untrained classifier.
func New(cfg Config) *Classifier {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 500
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	return &Classifier{cfg: cfg}
}

// NewDefault uses DefaultConfig.
func NewDefault() *Classifier { return New(DefaultConfig()) }

// encoder turns instances into standardized one-hot rows with a bias term.
type encoder struct {
	schema *ml.Schema
	// offsets[a] is the first output column of attribute a.
	offsets []int
	// width is the encoded row length including the trailing bias 1.
	width int
	// mean/std standardise numeric columns.
	mean, std []float64
}

func newEncoder(d *ml.Dataset) *encoder {
	e := &encoder{schema: d.Schema}
	e.offsets = make([]int, d.Schema.NumAttrs())
	col := 0
	for a, attr := range d.Schema.Attrs {
		e.offsets[a] = col
		if attr.Kind == ml.Nominal {
			col += attr.NumValues()
		} else {
			col++
		}
	}
	e.width = col + 1 // bias
	e.mean = make([]float64, col)
	e.std = make([]float64, col)
	for i := range e.std {
		e.std[i] = 1
	}
	// Standardise numeric columns from training data.
	for a, attr := range d.Schema.Attrs {
		if attr.Kind != ml.Numeric {
			continue
		}
		j := e.offsets[a]
		var sum, sq, n float64
		for _, in := range d.Instances {
			v := in.X[a]
			if math.IsNaN(v) {
				continue
			}
			sum += v
			sq += v * v
			n++
		}
		if n > 0 {
			m := sum / n
			variance := sq/n - m*m
			if variance < 0 {
				variance = 0
			}
			s := math.Sqrt(variance)
			if s < 1e-9 {
				s = 1
			}
			e.mean[j], e.std[j] = m, s
		}
	}
	return e
}

// encode writes the dense row for x into out (length width).
func (e *encoder) encode(x []float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for a, attr := range e.schema.Attrs {
		v := x[a]
		if math.IsNaN(v) {
			continue // missing: all-zero block
		}
		j := e.offsets[a]
		if attr.Kind == ml.Nominal {
			vi := int(v)
			if vi >= 0 && vi < attr.NumValues() {
				out[j+vi] = 1
			}
		} else {
			out[j] = (v - e.mean[j]) / e.std[j]
		}
	}
	out[e.width-1] = 1 // bias
}

// sparseEntry is one non-zero cell of an encoded design row. One-hot
// encoded nominal attributes make rows extremely sparse; training iterates
// non-zeros only, which matters at the paper's 96-attribute × 16-symbol
// configurations.
type sparseEntry struct {
	j int
	v float64
}

// Fit trains by maximising the L2-penalised multinomial log-likelihood.
func (c *Classifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyTrainingSet
	}
	c.schema = d.Schema
	c.enc = newEncoder(d)
	n := d.Len()
	nc := d.Schema.NumClasses()
	width := c.enc.width

	// Pre-encode the design matrix, sparsely.
	rows := make([][]sparseEntry, n)
	dense := make([]float64, width)
	for i, in := range d.Instances {
		c.enc.encode(in.X, dense)
		for j, v := range dense {
			if v != 0 {
				rows[i] = append(rows[i], sparseEntry{j: j, v: v})
			}
		}
	}

	// Weights for nc-1 classes (last class is reference).
	c.w = make([][]float64, nc-1)
	for i := range c.w {
		c.w[i] = make([]float64, width)
	}

	step := 0.5
	prevLoss := math.Inf(1)
	probs := make([]float64, nc)
	grad := make([][]float64, nc-1)
	for i := range grad {
		grad[i] = make([]float64, width)
	}
	for iter := 0; iter < c.cfg.MaxIter; iter++ {
		for i := range grad {
			for j := range grad[i] {
				grad[i][j] = 0
			}
		}
		loss := 0.0
		for i := 0; i < n; i++ {
			c.scoresSparse(rows[i], probs)
			softmaxInPlace(probs)
			y := d.Instances[i].Class
			loss -= math.Log(math.Max(probs[y], 1e-300))
			for cl := 0; cl < nc-1; cl++ {
				delta := probs[cl]
				if cl == y {
					delta -= 1
				}
				g := grad[cl]
				for _, e := range rows[i] {
					g[e.j] += delta * e.v
				}
			}
		}
		// Ridge penalty (not on bias).
		var gnorm float64
		for cl := range grad {
			for j := 0; j < width-1; j++ {
				grad[cl][j] += c.cfg.Ridge * c.w[cl][j]
				loss += 0.5 * c.cfg.Ridge * c.w[cl][j] * c.w[cl][j]
			}
			for j := range grad[cl] {
				gnorm += grad[cl][j] * grad[cl][j]
			}
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < c.cfg.Tol {
			break
		}
		// Backtracking: if the loss went up, halve the step and continue;
		// otherwise grow it slightly.
		if loss > prevLoss {
			step *= 0.5
			if step < 1e-12 {
				break
			}
		} else {
			step *= 1.05
		}
		prevLoss = loss
		lr := step / float64(n)
		for cl := range c.w {
			g := grad[cl]
			w := c.w[cl]
			for j := range w {
				w[j] -= lr * g[j]
			}
		}
	}
	return nil
}

// scores fills out[0..nc-1] with linear scores (reference class scores 0).
func (c *Classifier) scores(row []float64, out []float64) {
	nc := c.schema.NumClasses()
	for cl := 0; cl < nc-1; cl++ {
		var s float64
		w := c.w[cl]
		for j, rv := range row {
			if rv != 0 {
				s += w[j] * rv
			}
		}
		out[cl] = s
	}
	out[nc-1] = 0
}

// scoresSparse is scores over a sparse row.
func (c *Classifier) scoresSparse(row []sparseEntry, out []float64) {
	nc := c.schema.NumClasses()
	for cl := 0; cl < nc-1; cl++ {
		var s float64
		w := c.w[cl]
		for _, e := range row {
			s += w[e.j] * e.v
		}
		out[cl] = s
	}
	out[nc-1] = 0
}

func softmaxInPlace(xs []float64) {
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	var z float64
	for i := range xs {
		xs[i] = math.Exp(xs[i] - max)
		z += xs[i]
	}
	for i := range xs {
		xs[i] /= z
	}
}

// PredictProba returns class probabilities.
func (c *Classifier) PredictProba(x []float64) []float64 {
	if c.w == nil {
		panic(ml.ErrNotFitted)
	}
	row := make([]float64, c.enc.width)
	c.enc.encode(x, row)
	out := make([]float64, c.schema.NumClasses())
	c.scores(row, out)
	softmaxInPlace(out)
	return out
}

// Predict returns the most probable class.
func (c *Classifier) Predict(x []float64) int {
	p := c.PredictProba(x)
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

var _ ml.Classifier = (*Classifier)(nil)
