// Package stats provides the statistics the symbolic-representation pipeline
// depends on: batch quantiles over all values and over distinct values (the
// paper's median and distinctmedian separator learners), histograms (Fig. 2),
// accumulative prefix statistics (Fig. 4), and log-normal distribution
// helpers used by the synthetic dataset generator.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty reports a statistic requested over no data.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum value; NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum value; NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// quantileSorted computes the type-7 quantile over already-sorted data.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// KQuantiles returns the k-1 interior separators that divide the ordered
// data into k equal-sized subsets — exactly the separators of the paper's
// *median* horizontal segmentation. The returned slice has length k-1 and is
// non-decreasing.
func KQuantiles(xs []float64, k int) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if k < 2 {
		return nil, errors.New("stats: k must be >= 2")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	seps := make([]float64, k-1)
	for i := 1; i < k; i++ {
		seps[i-1] = quantileSorted(sorted, float64(i)/float64(k))
	}
	return seps, nil
}

// Distinct returns the sorted distinct values of xs.
func Distinct(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := sorted[:1]
	for _, x := range sorted[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// KQuantilesDistinct computes k-quantile separators over the *set* of
// distinct values — the paper's *distinctmedian* learner, which avoids bias
// toward values that occur very often (e.g. standby power).
func KQuantilesDistinct(xs []float64, k int) ([]float64, error) {
	d := Distinct(xs)
	if len(d) == 0 {
		return nil, ErrEmpty
	}
	if k < 2 {
		return nil, errors.New("stats: k must be >= 2")
	}
	seps := make([]float64, k-1)
	for i := 1; i < k; i++ {
		seps[i-1] = quantileSorted(d, float64(i)/float64(k))
	}
	return seps, nil
}
