// Package knn implements a k-nearest-neighbour classifier with pluggable
// per-attribute distance semantics: nominal attributes contribute 0/1
// mismatch, numeric attributes contribute range-normalised absolute
// difference (Weka IBk's default HEOM-style metric). It rounds out the
// paper's "any algorithm supporting nominal values" claim with an instance-
// based learner and powers the segmentation-by-similarity example.
package knn

import (
	"math"
	"sort"

	"symmeter/internal/ml"
)

// Classifier is a k-NN model; Fit stores the training data and per-numeric
// attribute ranges.
type Classifier struct {
	// K is the number of neighbours (default 3).
	K int

	train  []ml.Instance
	schema *ml.Schema
	// lo/hi are per-attribute ranges for numeric normalisation.
	lo, hi []float64
}

// Fit memorises the training set and computes numeric attribute ranges.
func (c *Classifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyTrainingSet
	}
	c.schema = d.Schema
	c.train = d.Instances
	na := d.Schema.NumAttrs()
	c.lo = make([]float64, na)
	c.hi = make([]float64, na)
	for a := 0; a < na; a++ {
		c.lo[a], c.hi[a] = math.Inf(1), math.Inf(-1)
		for _, in := range d.Instances {
			v := in.X[a]
			if math.IsNaN(v) {
				continue
			}
			if v < c.lo[a] {
				c.lo[a] = v
			}
			if v > c.hi[a] {
				c.hi[a] = v
			}
		}
	}
	return nil
}

// distance is the HEOM-style mixed metric; missing values contribute the
// maximal per-attribute distance 1.
func (c *Classifier) distance(a, b []float64) float64 {
	var sum float64
	for i, attr := range c.schema.Attrs {
		va, vb := a[i], b[i]
		if math.IsNaN(va) || math.IsNaN(vb) {
			sum++
			continue
		}
		if attr.Kind == ml.Nominal {
			if va != vb {
				sum++
			}
			continue
		}
		r := c.hi[i] - c.lo[i]
		if r <= 0 {
			continue
		}
		d := math.Abs(va-vb) / r
		sum += d * d
	}
	return sum
}

// Predict votes among the k nearest training instances (distance-weighted
// majority; ties break toward the lower class index).
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

// PredictProba returns normalised inverse-distance-weighted votes.
func (c *Classifier) PredictProba(x []float64) []float64 {
	if c.train == nil {
		panic(ml.ErrNotFitted)
	}
	type nb struct {
		d     float64
		class int
	}
	ns := make([]nb, len(c.train))
	for i, in := range c.train {
		ns[i] = nb{d: c.distance(x, in.X), class: in.Class}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].d < ns[j].d })
	k := c.K
	if k > len(ns) {
		k = len(ns)
	}
	votes := make([]float64, c.schema.NumClasses())
	for _, n := range ns[:k] {
		votes[n.class] += 1 / (1 + n.d)
	}
	var z float64
	for _, v := range votes {
		z += v
	}
	if z > 0 {
		for i := range votes {
			votes[i] /= z
		}
	}
	return votes
}

var _ ml.Classifier = (*Classifier)(nil)
