// Package tree implements a C4.5-style decision tree, standing in for
// Weka's J48 in the paper's Table 1. It supports nominal multiway splits and
// numeric binary splits chosen by gain ratio, pessimistic error pruning with
// a confidence factor (C4.5 / J48 semantics), and a randomised mode —
// per-node random feature subsets without pruning — that package forest
// composes into the paper's Random Forest.
package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"symmeter/internal/ml"
	"symmeter/internal/stats"
)

// Config controls tree induction.
type Config struct {
	// MinLeaf is the minimum number of instances per leaf (C4.5 default 2).
	MinLeaf int
	// Prune enables pessimistic error pruning (J48 default true).
	Prune bool
	// CF is the pruning confidence factor (J48 default 0.25).
	CF float64
	// RandomFeatures, when positive, evaluates only that many randomly
	// chosen attributes per node (Random Forest mode).
	RandomFeatures int
	// Seed seeds the feature sampler in RandomFeatures mode.
	Seed int64
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
}

// DefaultConfig mirrors J48 defaults.
func DefaultConfig() Config {
	return Config{MinLeaf: 2, Prune: true, CF: 0.25}
}

// Classifier is a trained decision tree.
type Classifier struct {
	cfg    Config
	schema *ml.Schema
	root   *node
	rng    *rand.Rand
	// scratch buffers reused across split evaluations (training is
	// single-goroutine); without them, wide datasets like the paper's
	// "raw 1sec" row (86400 numeric attributes) generate one short-lived
	// slice per attribute per node.
	scratchPairs []pair
	scratchLeft  []float64
	scratchRight []float64
}

// node is one tree node. Leaves carry a class; internal nodes carry a split.
type node struct {
	// dist is the training class distribution reaching this node.
	dist []float64
	// class is the majority class at this node.
	class int

	// leaf marks terminal nodes.
	leaf bool

	// attr is the split attribute for internal nodes.
	attr int
	// threshold applies to numeric splits: x <= threshold goes to child 0.
	threshold float64
	// children are the branches: one per nominal value, or two for numeric.
	children []*node
}

// New returns a tree with the given configuration.
func New(cfg Config) *Classifier {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	if cfg.CF <= 0 || cfg.CF >= 1 {
		cfg.CF = 0.25
	}
	return &Classifier{cfg: cfg}
}

// NewDefault returns a J48-default tree.
func NewDefault() *Classifier { return New(DefaultConfig()) }

// Fit induces the tree.
func (c *Classifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyTrainingSet
	}
	c.schema = d.Schema
	c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	usedNominal := make([]bool, d.Schema.NumAttrs())
	c.root = c.build(d, idx, usedNominal, 0)
	if c.cfg.Prune {
		c.prune(c.root)
	}
	return nil
}

// distribution tallies class counts over the instance indices.
func distribution(d *ml.Dataset, idx []int) []float64 {
	dist := make([]float64, d.Schema.NumClasses())
	for _, i := range idx {
		dist[d.Instances[i].Class]++
	}
	return dist
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func entropy(dist []float64) float64 {
	var n float64
	for _, c := range dist {
		n += c
	}
	if n == 0 {
		return 0
	}
	var h float64
	for _, c := range dist {
		if c > 0 {
			p := c / n
			h -= p * math.Log2(p)
		}
	}
	return h
}

// split describes a candidate split.
type split struct {
	attr      int
	threshold float64 // numeric only
	gainRatio float64
	gain      float64
	parts     [][]int // instance indices per branch
}

// build grows the tree recursively.
func (c *Classifier) build(d *ml.Dataset, idx []int, usedNominal []bool, depth int) *node {
	dist := distribution(d, idx)
	n := &node{dist: dist, class: argmax(dist)}

	pure := false
	for _, cnt := range dist {
		if cnt == float64(len(idx)) {
			pure = true
		}
	}
	if pure || len(idx) < 2*c.cfg.MinLeaf ||
		(c.cfg.MaxDepth > 0 && depth >= c.cfg.MaxDepth) {
		n.leaf = true
		return n
	}

	best := c.bestSplit(d, idx, usedNominal)
	if best == nil {
		n.leaf = true
		return n
	}

	n.attr = best.attr
	n.threshold = best.threshold
	n.children = make([]*node, len(best.parts))
	isNominal := d.Schema.Attrs[best.attr].Kind == ml.Nominal
	if isNominal {
		usedNominal[best.attr] = true
	}
	for b, part := range best.parts {
		if len(part) == 0 {
			// Empty branch: a leaf predicting the parent majority.
			n.children[b] = &node{leaf: true, class: n.class, dist: make([]float64, len(dist))}
			continue
		}
		n.children[b] = c.build(d, part, usedNominal, depth+1)
	}
	if isNominal {
		usedNominal[best.attr] = false
	}
	return n
}

// candidateAttrs returns the attribute indices to evaluate at a node,
// sampling only among attributes still usable on this path (nominal
// attributes already split on are excluded before sampling, so the random
// subset is never wasted on them).
func (c *Classifier) candidateAttrs(numAttrs int, usedNominal []bool) []int {
	all := make([]int, 0, numAttrs)
	for i := 0; i < numAttrs; i++ {
		if !usedNominal[i] {
			all = append(all, i)
		}
	}
	if c.cfg.RandomFeatures <= 0 || c.cfg.RandomFeatures >= len(all) {
		return all
	}
	c.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:c.cfg.RandomFeatures]
}

// bestSplit evaluates candidate attributes and returns the best split by
// gain ratio (among splits with positive gain), or nil if none qualifies.
func (c *Classifier) bestSplit(d *ml.Dataset, idx []int, usedNominal []bool) *split {
	var best *split
	for _, a := range c.candidateAttrs(d.Schema.NumAttrs(), usedNominal) {
		attr := d.Schema.Attrs[a]
		var s *split
		if attr.Kind == ml.Nominal {
			s = c.nominalSplit(d, idx, a)
		} else {
			s = c.numericSplit(d, idx, a)
		}
		if s == nil || s.gain <= 1e-10 {
			continue
		}
		if best == nil || s.gainRatio > best.gainRatio {
			best = s
		}
	}
	return best
}

// nominalSplit partitions by category.
func (c *Classifier) nominalSplit(d *ml.Dataset, idx []int, a int) *split {
	nv := d.Schema.Attrs[a].NumValues()
	parts := make([][]int, nv)
	missing := 0
	for _, i := range idx {
		v := d.Instances[i].X[a]
		if math.IsNaN(v) {
			missing++
			continue
		}
		parts[int(v)] = append(parts[int(v)], i)
	}
	n := float64(len(idx) - missing)
	if n == 0 {
		return nil
	}
	// Require at least two non-trivial branches.
	nonEmpty := 0
	for _, p := range parts {
		if len(p) >= c.cfg.MinLeaf {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return nil
	}
	parentH := entropy(distribution(d, idx))
	var info, splitInfo float64
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		w := float64(len(p)) / n
		info += w * entropy(distribution(d, p))
		splitInfo -= w * math.Log2(w)
	}
	gain := parentH - info
	if splitInfo < 1e-10 {
		return nil
	}
	return &split{attr: a, gain: gain, gainRatio: gain / splitInfo, parts: parts}
}

// pair is one (value, class, instance) triple used by numeric splits.
type pair struct {
	v     float64
	class int
	i     int
}

// numericSplit finds the best binary threshold by scanning sorted values.
func (c *Classifier) numericSplit(d *ml.Dataset, idx []int, a int) *split {
	pairs := c.scratchPairs[:0]
	for _, i := range idx {
		v := d.Instances[i].X[a]
		if math.IsNaN(v) {
			continue
		}
		pairs = append(pairs, pair{v: v, class: d.Instances[i].Class, i: i})
	}
	c.scratchPairs = pairs
	if len(pairs) < 2*c.cfg.MinLeaf {
		return nil
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	n := float64(len(pairs))
	nc := d.Schema.NumClasses()
	if cap(c.scratchLeft) < nc {
		c.scratchLeft = make([]float64, nc)
		c.scratchRight = make([]float64, nc)
	}
	total := make([]float64, nc)
	for _, p := range pairs {
		total[p.class]++
	}
	parentH := entropy(total)

	left := c.scratchLeft[:nc]
	right := c.scratchRight[:nc]
	for cl := range left {
		left[cl] = 0
	}
	bestGain := -1.0
	bestPos := -1
	var nl float64
	for pos := 0; pos < len(pairs)-1; pos++ {
		left[pairs[pos].class]++
		nl++
		if pairs[pos].v == pairs[pos+1].v {
			continue // can only cut between distinct values
		}
		if int(nl) < c.cfg.MinLeaf || len(pairs)-int(nl) < c.cfg.MinLeaf {
			continue
		}
		for cl := 0; cl < nc; cl++ {
			right[cl] = total[cl] - left[cl]
		}
		info := nl/n*entropy(left) + (n-nl)/n*entropy(right)
		if g := parentH - info; g > bestGain {
			bestGain = g
			bestPos = pos
		}
	}
	if bestPos < 0 || bestGain <= 0 {
		return nil
	}
	threshold := (pairs[bestPos].v + pairs[bestPos+1].v) / 2
	parts := make([][]int, 2)
	for _, p := range pairs {
		if p.v <= threshold {
			parts[0] = append(parts[0], p.i)
		} else {
			parts[1] = append(parts[1], p.i)
		}
	}
	wl := float64(len(parts[0])) / n
	wr := float64(len(parts[1])) / n
	splitInfo := -wl*math.Log2(wl) - wr*math.Log2(wr)
	if splitInfo < 1e-10 {
		return nil
	}
	return &split{
		attr: a, threshold: threshold,
		gain: bestGain, gainRatio: bestGain / splitInfo,
		parts: parts,
	}
}

// prune applies C4.5 pessimistic subtree replacement bottom-up and returns
// the estimated subtree error count.
func (c *Classifier) prune(n *node) float64 {
	total := 0.0
	for _, cnt := range n.dist {
		total += cnt
	}
	leafErrors := total - n.dist[n.class]
	leafEstimate := leafErrors + addErrs(total, leafErrors, c.cfg.CF)
	if n.leaf {
		return leafEstimate
	}
	var subtreeEstimate float64
	for _, ch := range n.children {
		subtreeEstimate += c.prune(ch)
	}
	if leafEstimate <= subtreeEstimate+0.1 {
		n.leaf = true
		n.children = nil
		return leafEstimate
	}
	return subtreeEstimate
}

// addErrs computes the pessimistic extra errors for a leaf covering N
// instances with e observed errors, at confidence CF — Weka's
// Stats.addErrs, which J48 pruning is built on.
func addErrs(n, e, cf float64) float64 {
	if n == 0 {
		return 0
	}
	if e < 1 {
		// Base case: upper bound when no errors observed.
		base := n * (1 - math.Pow(cf, 1/n))
		if e == 0 {
			return base
		}
		return base + e*(addErrs(n, 1, cf)-base)
	}
	if e+0.5 >= n {
		return math.Max(n-e, 0)
	}
	z := stats.NormInv(1 - cf)
	f := (e + 0.5) / n
	r := (f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))) / (1 + z*z/n)
	return r*n - e
}

// predictNode walks the tree; missing values follow the heaviest branch.
func (c *Classifier) predictNode(n *node, x []float64) *node {
	for !n.leaf {
		v := x[n.attr]
		var next *node
		if math.IsNaN(v) {
			next = heaviestChild(n)
		} else if c.schema.Attrs[n.attr].Kind == ml.Nominal {
			vi := int(v)
			if vi < 0 || vi >= len(n.children) {
				next = heaviestChild(n)
			} else {
				next = n.children[vi]
			}
		} else {
			if v <= n.threshold {
				next = n.children[0]
			} else {
				next = n.children[1]
			}
		}
		n = next
	}
	return n
}

func heaviestChild(n *node) *node {
	best := n.children[0]
	bestW := -1.0
	for _, ch := range n.children {
		var w float64
		for _, c := range ch.dist {
			w += c
		}
		if w > bestW {
			bestW = w
			best = ch
		}
	}
	return best
}

// Predict returns the predicted class.
func (c *Classifier) Predict(x []float64) int {
	if c.root == nil {
		panic(ml.ErrNotFitted)
	}
	return c.predictNode(c.root, x).class
}

// PredictProba returns the Laplace-smoothed class distribution of the leaf
// the instance falls into.
func (c *Classifier) PredictProba(x []float64) []float64 {
	if c.root == nil {
		panic(ml.ErrNotFitted)
	}
	leaf := c.predictNode(c.root, x)
	out := make([]float64, len(leaf.dist))
	var total float64
	for _, cnt := range leaf.dist {
		total += cnt
	}
	for i, cnt := range leaf.dist {
		out[i] = (cnt + 1) / (total + float64(len(leaf.dist)))
	}
	return out
}

// Depth returns the tree depth (leaf-only trees have depth 0).
func (c *Classifier) Depth() int { return depth(c.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	d := 0
	for _, ch := range n.children {
		if cd := depth(ch); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Leaves returns the number of leaves.
func (c *Classifier) Leaves() int { return leaves(c.root) }

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	total := 0
	for _, ch := range n.children {
		total += leaves(ch)
	}
	return total
}

// String renders a compact description.
func (c *Classifier) String() string {
	if c.root == nil {
		return "tree(unfitted)"
	}
	return fmt.Sprintf("tree(depth=%d, leaves=%d)", c.Depth(), c.Leaves())
}

var _ ml.Classifier = (*Classifier)(nil)
