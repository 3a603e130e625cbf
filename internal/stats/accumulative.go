package stats

import "sort"

// Accumulative computes prefix ("accumulative") statistics over a stream of
// values: at any point it can report the mean, median and median of distinct
// values of everything seen so far. This reproduces Fig. 4 of the paper,
// which tracks how those three statistics converge over the first days of
// data and justifies learning separators from two days of history.
//
// Values are buffered; Snapshot sorts only the unsorted suffix and merges,
// so a stream of n values with s snapshots costs O(n log n + s·n) rather
// than O(s·n log n).
type Accumulative struct {
	sorted  []float64 // sorted prefix
	pending []float64 // values added since the last snapshot
	sum     float64
	count   int
}

// Add records one value.
func (a *Accumulative) Add(x float64) {
	a.pending = append(a.pending, x)
	a.sum += x
	a.count++
}

// Mean returns the running mean in O(1).
func (a *Accumulative) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// consolidate merges pending values into the sorted prefix.
func (a *Accumulative) consolidate() {
	if len(a.pending) == 0 {
		return
	}
	sort.Float64s(a.pending)
	merged := make([]float64, 0, len(a.sorted)+len(a.pending))
	i, j := 0, 0
	for i < len(a.sorted) && j < len(a.pending) {
		if a.sorted[i] <= a.pending[j] {
			merged = append(merged, a.sorted[i])
			i++
		} else {
			merged = append(merged, a.pending[j])
			j++
		}
	}
	merged = append(merged, a.sorted[i:]...)
	merged = append(merged, a.pending[j:]...)
	a.sorted = merged
	a.pending = a.pending[:0]
}

// Point is one snapshot of the accumulative statistics.
type Point struct {
	Count          int
	Mean           float64
	Median         float64
	DistinctMedian float64
}

// Snapshot reports the statistics over everything added so far.
func (a *Accumulative) Snapshot() Point {
	a.consolidate()
	p := Point{Count: a.count, Mean: a.Mean()}
	if a.count == 0 {
		return p
	}
	p.Median = quantileSorted(a.sorted, 0.5)
	// Median of distinct values: dedupe the sorted prefix without copying
	// the whole slice when few duplicates exist.
	distinct := make([]float64, 0, len(a.sorted))
	for i, x := range a.sorted {
		if i == 0 || x != a.sorted[i-1] {
			distinct = append(distinct, x)
		}
	}
	p.DistinctMedian = quantileSorted(distinct, 0.5)
	return p
}
