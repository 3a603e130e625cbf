// Package naivebayes implements the Naive Bayes classifier used throughout
// the paper's classification and forecasting experiments (Figs. 5, 8 and
// Table 1). Nominal attributes use category frequencies with Laplace
// smoothing; numeric attributes use per-class Gaussians — matching Weka's
// NaiveBayes defaults closely enough for the paper's comparisons.
package naivebayes

import (
	"math"

	"symmeter/internal/ml"
)

// Classifier is a mixed nominal/numeric Naive Bayes model.
type Classifier struct {
	schema *ml.Schema
	// logPrior[c] is log P(class = c), Laplace-smoothed.
	logPrior []float64
	// nominal[a][c][v] is log P(attr a = v | class c) for nominal attrs.
	nominal [][][]float64
	// gauss[a][c] holds the Gaussian parameters for numeric attrs.
	gauss [][]gaussian
}

type gaussian struct {
	mean, std float64
	ok        bool // false when the class had no values for this attribute
}

// minStd floors the Gaussian standard deviation like Weka does (precision
// floor) so single-valued attributes do not produce infinite densities.
const minStd = 1e-3

// New returns an untrained Naive Bayes classifier.
func New() *Classifier { return &Classifier{} }

// Fit estimates priors and per-attribute likelihoods.
func (c *Classifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyTrainingSet
	}
	c.schema = d.Schema
	nc := d.Schema.NumClasses()
	na := d.Schema.NumAttrs()

	// Priors with Laplace smoothing.
	counts := d.ClassCounts()
	c.logPrior = make([]float64, nc)
	for i, n := range counts {
		c.logPrior[i] = math.Log(float64(n+1) / float64(d.Len()+nc))
	}

	c.nominal = make([][][]float64, na)
	c.gauss = make([][]gaussian, na)
	for a := 0; a < na; a++ {
		attr := d.Schema.Attrs[a]
		if attr.Kind == ml.Nominal {
			c.fitNominal(d, a, nc)
		} else {
			c.fitNumeric(d, a, nc)
		}
	}
	return nil
}

func (c *Classifier) fitNominal(d *ml.Dataset, a, nc int) {
	nv := d.Schema.Attrs[a].NumValues()
	table := make([][]float64, nc)
	for cl := 0; cl < nc; cl++ {
		table[cl] = make([]float64, nv)
	}
	classTotals := make([]float64, nc)
	for _, in := range d.Instances {
		v := in.X[a]
		if math.IsNaN(v) {
			continue
		}
		table[in.Class][int(v)]++
		classTotals[in.Class]++
	}
	for cl := 0; cl < nc; cl++ {
		for v := 0; v < nv; v++ {
			table[cl][v] = math.Log((table[cl][v] + 1) / (classTotals[cl] + float64(nv)))
		}
	}
	c.nominal[a] = table
}

func (c *Classifier) fitNumeric(d *ml.Dataset, a, nc int) {
	sums := make([]float64, nc)
	sqs := make([]float64, nc)
	ns := make([]float64, nc)
	for _, in := range d.Instances {
		v := in.X[a]
		if math.IsNaN(v) {
			continue
		}
		sums[in.Class] += v
		sqs[in.Class] += v * v
		ns[in.Class]++
	}
	gs := make([]gaussian, nc)
	for cl := 0; cl < nc; cl++ {
		if ns[cl] == 0 {
			continue
		}
		mean := sums[cl] / ns[cl]
		variance := sqs[cl]/ns[cl] - mean*mean
		if variance < 0 {
			variance = 0
		}
		std := math.Sqrt(variance)
		if std < minStd {
			std = minStd
		}
		gs[cl] = gaussian{mean: mean, std: std, ok: true}
	}
	c.gauss[a] = gs
}

// logLikelihoods returns the unnormalised per-class log scores.
func (c *Classifier) logLikelihoods(x []float64) []float64 {
	nc := c.schema.NumClasses()
	scores := append([]float64(nil), c.logPrior...)
	for a, attr := range c.schema.Attrs {
		v := x[a]
		if math.IsNaN(v) {
			continue // missing attributes contribute nothing
		}
		if attr.Kind == ml.Nominal {
			vi := int(v)
			if vi < 0 || vi >= attr.NumValues() {
				continue
			}
			for cl := 0; cl < nc; cl++ {
				scores[cl] += c.nominal[a][cl][vi]
			}
		} else {
			for cl := 0; cl < nc; cl++ {
				g := c.gauss[a][cl]
				if !g.ok {
					scores[cl] += math.Log(1e-12)
					continue
				}
				z := (v - g.mean) / g.std
				scores[cl] += -0.5*z*z - math.Log(g.std) - 0.5*math.Log(2*math.Pi)
			}
		}
	}
	return scores
}

// Predict returns the class with the highest posterior. It panics if called
// before Fit (programmer error surfaced loudly, matching the Classifier
// contract used by the evaluation harness).
func (c *Classifier) Predict(x []float64) int {
	scores := c.logLikelihoods(x)
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return best
}

var _ ml.Classifier = (*Classifier)(nil)
