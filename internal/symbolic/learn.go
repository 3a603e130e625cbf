package symbolic

import (
	"fmt"
	"math"
	"sort"

	"symmeter/internal/stats"
)

// Method identifies a separator-learning strategy (paper §2.2).
type Method int

const (
	// MethodNone marks hand-built tables.
	MethodNone Method = iota
	// MethodUniform assigns each symbol an equal-width slice of [0, max].
	MethodUniform
	// MethodMedian places separators at the k-quantiles of the training
	// values, so each symbol represents the same number of values
	// (maximum-entropy symbols).
	MethodMedian
	// MethodDistinctMedian places separators at the k-quantiles of the
	// *distinct* training values, avoiding bias toward very frequent values.
	MethodDistinctMedian
	// MethodLloydMax places separators by 1-D k-means (Lloyd–Max), the
	// MSE-optimal scalar quantiser — not in the paper, provided as an
	// ablation against its three heuristics (`experiments -run ablation`).
	MethodLloydMax
)

// Methods lists the learners in the order the paper's figures report them.
var Methods = []Method{MethodDistinctMedian, MethodMedian, MethodUniform}

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodUniform:
		return "uniform"
	case MethodMedian:
		return "median"
	case MethodDistinctMedian:
		return "distinctmedian"
	case MethodLloydMax:
		return "lloydmax"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts the paper's method name to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "uniform":
		return MethodUniform, nil
	case "median":
		return MethodMedian, nil
	case "distinctmedian":
		return MethodDistinctMedian, nil
	case "lloydmax":
		return MethodLloydMax, nil
	default:
		return MethodNone, fmt.Errorf("symbolic: unknown method %q", s)
	}
}

// Learn builds a lookup table with alphabet size k from historical training
// values using the given method. The paper learns tables from the first two
// days of each house's data (§3).
func Learn(method Method, values []float64, k int) (*Table, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("symbolic: cannot learn a table from no data")
	}
	var seps []float64
	var err error
	switch method {
	case MethodUniform:
		seps = uniformSeparators(values, k)
		if seps == nil {
			return nil, ErrNotPowerOfTwo
		}
	case MethodMedian:
		seps, err = stats.KQuantiles(values, k)
	case MethodDistinctMedian:
		seps, err = stats.KQuantilesDistinct(values, k)
	case MethodLloydMax:
		seps, err = lloydMaxSeparators(values, k)
	default:
		return nil, fmt.Errorf("symbolic: cannot learn with method %s", method)
	}
	if err != nil {
		return nil, err
	}
	min, max := stats.Min(values), stats.Max(values)
	if method == MethodUniform {
		// Uniform ranges run from zero to max per the paper.
		min = math.Min(0, min)
	}
	t, err := NewTable(k, seps, min, max)
	if err != nil {
		return nil, err
	}
	t.method = method
	t.learnRepresentatives(values)
	return t, nil
}

// uniformSeparators divides [0, max] into k equal subranges:
// βi = i·max/k (paper §2.2a). Returns nil when k is invalid.
func uniformSeparators(values []float64, k int) []float64 {
	if _, err := NewAlphabet(k); err != nil {
		return nil
	}
	max := stats.Max(values)
	seps := make([]float64, k-1)
	for i := 1; i < k; i++ {
		seps[i-1] = float64(i) * max / float64(k)
	}
	return seps
}

// lloydMaxSeparators runs 1-D k-means (Lloyd–Max) and returns the k-1
// midpoints between sorted centroids. Centroids initialise at the
// k-quantiles (a good 1-D seeding) and iterate to a local MSE optimum.
func lloydMaxSeparators(values []float64, k int) ([]float64, error) {
	centroids, err := stats.KQuantiles(values, 2*k) // odd positions seed the k centroids
	if err != nil {
		return nil, err
	}
	cent := make([]float64, k)
	for i := 0; i < k; i++ {
		cent[i] = centroids[2*i] // quantiles at (2i+1)/(2k)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for iter := 0; iter < 100; iter++ {
		// Assignment boundaries are centroid midpoints; recompute means by
		// sweeping the sorted values once.
		sums := make([]float64, k)
		counts := make([]int, k)
		c := 0
		for _, v := range sorted {
			for c+1 < k && v > (cent[c]+cent[c+1])/2 {
				c++
			}
			sums[c] += v
			counts[c]++
		}
		moved := 0.0
		for i := 0; i < k; i++ {
			if counts[i] == 0 {
				continue // keep an empty centroid where it is
			}
			next := sums[i] / float64(counts[i])
			moved += math.Abs(next - cent[i])
			cent[i] = next
		}
		if moved < 1e-9 {
			break
		}
	}
	seps := make([]float64, k-1)
	for i := 0; i < k-1; i++ {
		seps[i] = (cent[i] + cent[i+1]) / 2
	}
	return seps, nil
}

// learnRepresentatives sets each bin's reconstruction value to the mean of
// the training values that encode into it, summed in input order.
func (t *Table) learnRepresentatives(values []float64) {
	sums := make([]float64, t.K())
	counts := make([]int, t.K())
	for _, v := range values {
		i := t.bin(v)
		sums[i] += v
		counts[i]++
	}
	for i := range sums {
		if counts[i] > 0 {
			t.repr[i] = sums[i] / float64(counts[i])
		} else {
			t.repr[i] = math.NaN()
		}
	}
	t.refreshValues()
}
