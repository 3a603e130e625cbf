// Package stats provides the statistics the symbolic-representation pipeline
// depends on: batch quantiles over all values and over distinct values (the
// paper's median and distinctmedian separator learners), histograms (Fig. 2),
// accumulative prefix statistics (Fig. 4), and log-normal distribution
// helpers used by the synthetic dataset generator.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
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

// quantileSorted computes the type-7 quantile over already-sorted data. It
// reads only the ranks quantileRanks returns.
func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, frac := quantileRanks(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileRanks returns the ranks the type-7 q-quantile of n sorted values
// interpolates between, and the weight of the upper one. lo == hi when the
// quantile is a single order statistic.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if n == 1 || q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	if lo+1 >= n {
		return n - 1, n - 1, 0
	}
	return lo, lo + 1, pos - float64(lo)
}

// KQuantiles returns the k-1 interior separators that divide the ordered
// data into k equal-sized subsets — exactly the separators of the paper's
// *median* horizontal segmentation. The returned slice has length k-1 and is
// non-decreasing.
//
// The result is bit-identical to quantileSorted over a sort.Float64s copy of
// xs (NaN first), but no copy is sorted: the at most 2(k-1) ranks the
// quantiles read are placed by a multi-rank quickselect on one working copy,
// in expected O(n log k) time rather than O(n log n).
func KQuantiles(xs []float64, k int) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if k < 2 {
		return nil, errors.New("stats: k must be >= 2")
	}
	n := len(xs)
	ranks := make([]int, 0, 2*(k-1))
	for i := 1; i < k; i++ {
		lo, hi, _ := quantileRanks(n, float64(i)/float64(k))
		ranks = append(ranks, lo, hi)
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)

	work := append([]float64(nil), xs...)
	// sort.Float64s orders NaN before every number: move the NaNs to the
	// front, and the ranks beyond them select among numbers only, where <
	// is a strict weak order.
	nan := 0
	for i, x := range work {
		if math.IsNaN(x) {
			work[i], work[nan] = work[nan], work[i]
			nan++
		}
	}
	first, _ := slices.BinarySearch(ranks, nan)
	selectRanks(work, nan, n, ranks[first:], 2*bits.Len(uint(n)))

	seps := make([]float64, k-1)
	for i := 1; i < k; i++ {
		seps[i-1] = quantileSorted(work, float64(i)/float64(k))
	}
	return seps, nil
}

// selectRanks permutes a[lo:hi], which holds no NaN, so that a[r] holds the
// value an ascending sort of a[lo:hi] would put there, for every r in ranks:
// ascending, distinct and within [lo, hi). It partitions around a sampled
// pivot, recurses into the smaller side that still holds a rank and loops on
// the other. A range still unplaced after depth partitions, which only input
// built against the pivot sampling can cause, is sorted instead, so the worst
// case stays O(n log n).
func selectRanks(a []float64, lo, hi int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if hi-lo <= 16 {
			insertionSort(a[lo:hi])
			return
		}
		if depth == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		depth--
		p := pivot(a[lo:hi])
		j := lo + partition(a[lo:hi], p)
		if j == lo {
			// p is the least value in range: split its run off the front
			// instead (x < next(p) is x <= p), placing every rank inside it.
			if math.IsInf(p, 1) {
				return
			}
			j = lo + partition(a[lo:hi], math.Nextafter(p, math.Inf(1)))
			first, _ := slices.BinarySearch(ranks, j)
			lo, ranks = j, ranks[first:]
			continue
		}
		split, _ := slices.BinarySearch(ranks, j)
		if j-lo < hi-j {
			selectRanks(a, lo, j, ranks[:split], depth)
			lo, ranks = j, ranks[split:]
		} else {
			selectRanks(a, j, hi, ranks[split:], depth)
			hi, ranks = j, ranks[:split]
		}
	}
}

// pivot returns the median of the first, middle and last values of a, or for
// a long a Tukey's ninther: the median of three such medians, spread over it.
func pivot(a []float64) float64 {
	n := len(a)
	m := n / 2
	if n <= 256 {
		return median3(a[0], a[m], a[n-1])
	}
	e := n / 8
	return median3(
		median3(a[0], a[e], a[2*e]),
		median3(a[m-e], a[m], a[m+e]),
		median3(a[n-1-2*e], a[n-1-e], a[n-1]))
}

// median3 returns the median of three NaN-free values.
func median3(x, y, z float64) float64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = z
		if y < x {
			y = x
		}
	}
	return y
}

// partition moves the values of a below p to its front and returns how many
// there are. It is a Lomuto partition with no data-dependent branch (the
// compiler turns the conditional increment into a flag set), so unsorted
// input costs no mispredictions.
func partition(a []float64, p float64) int {
	j := 0
	for i, x := range a {
		a[i] = a[j]
		a[j] = x
		below := 0
		if x < p {
			below = 1
		}
		j += below
	}
	return j
}

// insertionSort sorts a short NaN-free slice in place.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
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
