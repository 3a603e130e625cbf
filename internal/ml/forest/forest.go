// Package forest implements the Random Forest classifier of the paper's
// Figs. 6, 7, 9 and Table 1: bagged randomised trees voting by averaged
// class distributions, following Weka's RandomForest (which the paper used)
// — unpruned trees, per-node random feature subsets of size
// ⌊log2(numAttrs)⌋+1 by default.
package forest

import (
	"fmt"
	"math"
	"math/rand"

	"symmeter/internal/ml"
	"symmeter/internal/ml/tree"
)

// Config controls the ensemble.
type Config struct {
	// Trees is the ensemble size (Weka default 10 at the paper's time).
	Trees int
	// Features is the per-node random subset size; 0 selects the Weka
	// default ⌊log2(numAttrs)⌋+1.
	Features int
	// Seed makes training deterministic.
	Seed int64
	// MaxDepth bounds each tree; 0 means unlimited (Weka default).
	MaxDepth int
}

// Classifier is a trained random forest.
type Classifier struct {
	cfg    Config
	trees  []*tree.Classifier
	schema *ml.Schema
}

// New returns a forest with the given config.
func New(cfg Config) *Classifier {
	if cfg.Trees <= 0 {
		cfg.Trees = 10
	}
	return &Classifier{cfg: cfg}
}

// Fit trains the ensemble on bootstrap resamples.
func (c *Classifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyTrainingSet
	}
	c.schema = d.Schema
	features := c.cfg.Features
	if features <= 0 {
		features = int(math.Log2(float64(d.Schema.NumAttrs()))) + 1
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	c.trees = make([]*tree.Classifier, c.cfg.Trees)
	for t := 0; t < c.cfg.Trees; t++ {
		// Bootstrap sample with replacement.
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = rng.Intn(d.Len())
		}
		boot := d.Subset(idx)
		tr := tree.New(tree.Config{
			MinLeaf:        1,
			Prune:          false,
			RandomFeatures: features,
			Seed:           rng.Int63(),
			MaxDepth:       c.cfg.MaxDepth,
		})
		if err := tr.Fit(boot); err != nil {
			return fmt.Errorf("forest: tree %d: %w", t, err)
		}
		c.trees[t] = tr
	}
	return nil
}

// PredictProba averages the member trees' leaf distributions.
func (c *Classifier) PredictProba(x []float64) []float64 {
	if len(c.trees) == 0 {
		panic(ml.ErrNotFitted)
	}
	out := make([]float64, c.schema.NumClasses())
	for _, tr := range c.trees {
		p := tr.PredictProba(x)
		for i := range out {
			out[i] += p[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(c.trees))
	}
	return out
}

// Predict returns the class with the highest averaged probability.
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
