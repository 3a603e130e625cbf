package server

import (
	"errors"
	"fmt"
	"math"

	"symmeter/internal/symbolic"
)

// The per-meter range fold: Count, Aggregate and Histogram over [t0, t1),
// answered on the packed symbols without reconstructing the float stream.
// Each step resolves the range once (Meter.resolve: the live tail under the
// shard read lock when the range can reach it, then the directory-pruned
// sealed blocks lock-free) and reads the published index in place — block
// summaries, payloads, lanes and epoch tables — so no per-block view is
// built. A block fully covered by the range contributes its summary; a
// partly covered edge is scanned by the packed-symbol kernels. A fleet
// worker folds many meters with the same resolution through the by-table
// variants in fleetfold.go, which keep runs open across meters.

const (
	// maxFoldLevel bounds the run histogram Aggregate folds edge spans into;
	// finer edges take the value-domain accumulator walk instead.
	maxFoldLevel = 8
	// maxHistogramLevel bounds Histogram results (4096 bins); finer
	// alphabets would return impractically wide histograms.
	maxHistogramLevel = 12
)

// Typed histogram errors, distinguishable with errors.Is.
var (
	// ErrMixedLevels reports a histogram over blocks or meters whose lookup
	// tables disagree on symbol level — the bins would not be comparable.
	ErrMixedLevels = errors.New("query: histogram over mixed symbol levels")
	// ErrLevelTooFine reports a histogram at a level above maxHistogramLevel.
	ErrLevelTooFine = errors.New("query: histogram level too fine")
)

// Agg is an order-insensitive aggregate over a time range. Min and Max are
// reconstruction values and only meaningful when Count > 0.
type Agg struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count, or NaN for an empty range.
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.Count)
}

// observe folds one (min,max) value pair into the aggregate.
func (a *Agg) observe(min, max float64) {
	if a.Count == 0 || min < a.Min {
		a.Min = min
	}
	if a.Count == 0 || max > a.Max {
		a.Max = max
	}
}

// Merge folds another aggregate in.
func (a *Agg) Merge(b Agg) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	a.Sum += b.Sum
	a.Count += b.Count
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// Histogram is a per-symbol count distribution at a single level.
type Histogram struct {
	// Level is the symbol width; Counts has 1<<Level entries.
	Level int
	// Counts[s] is the number of stored points whose symbol index is s.
	Counts []uint64
}

// FoldScratch is Aggregate's reusable edge state: the histogram that the
// current run of edge spans — consecutive edges at one level under one
// table — folds into, turned into floats once per run. A caller reuses one
// per goroutine; the zero value is ready.
type FoldScratch struct {
	// values is the open run's reconstruction values, nil when no run is
	// open; level is its symbol width.
	values []float64
	level  int
	hist   [1 << maxFoldLevel]uint64
	// The trailing pad keeps every field above at least a cache line from
	// the end of the struct, so two scratches in use by concurrent queries
	// never share a line however the allocator places them.
	_ [64]byte
}

// overlap returns the index range [i0, i1) of b's points inside [t0, t1)
// (t0 < t1), b starting at firstT. Pure integer arithmetic: point i lives at
// firstT + i·stride.
func (b *block) overlap(firstT, t0, t1 int64) (int, int) {
	if b.n == 0 || t1 <= firstT {
		return 0, 0
	}
	last := b.lastT(firstT)
	if t0 > last {
		return 0, 0
	}
	if b.stride == 0 { // single-point block, firstT already known in range
		return 0, 1
	}
	i0, i1 := 0, int(b.n)
	if t0 > firstT {
		i0 = int(ceilDiv(t0-firstT, b.stride))
	}
	if t1 <= last {
		i1 = int(ceilDiv(t1-firstT, b.stride)) // first index at or past t1
	}
	if i0 >= i1 {
		return 0, 0
	}
	return i0, i1
}

// ceilDiv returns ceil(a/b) for b > 0 and any a.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// Count returns the meter's number of stored points in [t0, t1). It never
// touches a payload: each block contributes its overlap, pure index
// arithmetic.
func (m Meter) Count(t0, t1 int64) uint64 {
	var n uint64
	ix, lo, hi := m.resolve(t0, t1, func(b *block, firstT int64, _ []*symbolic.Table, _ []uint16) {
		i0, i1 := b.overlap(firstT, t0, t1)
		n += uint64(i1 - i0)
	})
	for i := lo; i < hi; i++ {
		i0, i1 := ix.blocks[i].overlap(ix.firstTs[i], t0, t1)
		n += uint64(i1 - i0)
	}
	return n
}

// Aggregate folds the meter's count, sum, min and max over [t0, t1) into a,
// the live tail first, then sealed blocks in chain order. The tail's run is
// turned into floats before the shard lock is released, because its payload
// keeps growing after that; the sealed runs at the end.
func (m Meter) Aggregate(a *Agg, sc *FoldScratch, t0, t1 int64) {
	ix, lo, hi := m.resolve(t0, t1, func(b *block, firstT int64, tables []*symbolic.Table, _ []uint16) {
		sc.fold(a, b, firstT, tables, t0, t1)
		sc.flush(a)
	})
	for i := lo; i < hi; i++ {
		sc.fold(a, &ix.blocks[i], ix.firstTs[i], ix.tables, t0, t1)
	}
	sc.flush(a)
}

// fold is the one aggregate step per block: a block fully covered by
// [t0, t1) adds its summary, an edge finer than maxFoldLevel takes the
// accumulator walk (both in foldDirect), and any other edge is histogrammed
// into the current run — flushed first when its level or table differs.
// Extremes are compared in the value domain: no monotonicity of values in
// the symbol index is assumed.
func (sc *FoldScratch) fold(a *Agg, b *block, firstT int64, tables []*symbolic.Table, t0, t1 int64) {
	i0, i1 := b.overlap(firstT, t0, t1)
	if a.foldDirect(b, tables, i0, i1) {
		return
	}
	sc.span(a, b, tables[b.epoch], i0, i1)
}

// span histograms b's edge [i0, i1) under table t into the current run,
// flushed first when its level or table differs.
func (sc *FoldScratch) span(a *Agg, b *block, t *symbolic.Table, i0, i1 int) {
	level, values := int(b.level), t.ReconstructionValues()
	// Tables are immutable, so one values array means one table.
	if sc.values == nil || level != sc.level || &values[0] != &sc.values[0] {
		sc.flush(a)
		sc.values, sc.level = values, level
		clear(sc.hist[:1<<level])
	}
	symbolic.PackedRangeHistogram(sc.hist[:1<<level], b.payload, level, i0, i1)
}

// foldDirect folds b's points [i0, i1) into a when they need no run — none
// at all, the whole block (its summary), or an edge finer than maxFoldLevel
// (the accumulator walk) — and reports whether it did.
func (a *Agg) foldDirect(b *block, tables []*symbolic.Table, i0, i1 int) bool {
	switch {
	case i0 == i1:
	case i0 == 0 && i1 == int(b.n):
		a.observe(b.minV, b.maxV)
		a.Count += uint64(b.n)
		a.Sum += b.sum
	case b.level > maxFoldLevel:
		sum, lo, hi := symbolic.PackedRangeAggregate(tables[b.epoch].ReconstructionValues(), b.payload, int(b.level), i0, i1)
		a.observe(lo, hi)
		a.Count += uint64(i1 - i0)
		a.Sum += sum
	default:
		return false
	}
	return true
}

// flush turns the open run's histogram into one float fold into a and
// closes the run.
func (sc *FoldScratch) flush(a *Agg) {
	if sc.values == nil {
		return
	}
	a.foldRun(sc.hist[:1<<sc.level], sc.values)
	sc.values = nil
}

// foldRun folds a run's integer histogram over its table's reconstruction
// values into a: the one float fold of every edge run.
func (a *Agg) foldRun(hist []uint64, values []float64) {
	if c, s, lo, hi := symbolic.HistogramAggregate(hist, values); c > 0 {
		a.observe(lo, hi)
		a.Count += c
		a.Sum += s
	}
}

// Histogram adds the meter's per-symbol distribution over [t0, t1) into h,
// the live tail first, then sealed blocks in chain order: h.Level is taken
// from the first block with points in range when h is empty, and every later
// block must match it. Fully covered blocks with stored lanes are O(k);
// everything else is one kernel scan.
func (m Meter) Histogram(h *Histogram, t0, t1 int64) error {
	var err error
	ix, lo, hi := m.resolve(t0, t1, func(b *block, firstT int64, _ []*symbolic.Table, lanes []uint16) {
		err = h.fold(b, firstT, lanes, t0, t1)
	})
	for i := lo; i < hi && err == nil; i++ {
		err = h.fold(&ix.blocks[i], ix.firstTs[i], ix.lanes, t0, t1)
	}
	return err
}

// fold adds one block's counts in [t0, t1) into h, growing or checking
// h.Level.
func (h *Histogram) fold(b *block, firstT int64, lanes []uint16, t0, t1 int64) error {
	i0, i1 := b.overlap(firstT, t0, t1)
	if done, err := h.foldDirect(b, lanes, i0, i1); done || err != nil {
		return err
	}
	symbolic.PackedRangeHistogram(h.Counts, b.payload, h.Level, i0, i1)
	return nil
}

// foldDirect checks b's level against h — taking it on when h is empty —
// and adds b's points [i0, i1) when they need no payload scan: none at all,
// or a whole block with stored lanes (O(k)). It reports whether it added
// them; a false return with a nil error leaves a scan of [i0, i1) at
// h.Level to the caller.
func (h *Histogram) foldDirect(b *block, lanes []uint16, i0, i1 int) (bool, error) {
	if i0 == i1 {
		return true, nil
	}
	level := int(b.level)
	if level > maxHistogramLevel {
		return false, fmt.Errorf("%w: level %d > %d", ErrLevelTooFine, level, maxHistogramLevel)
	}
	if len(h.Counts) == 0 {
		h.Level = level
		k := 1 << level
		if cap(h.Counts) >= k {
			h.Counts = h.Counts[:k]
			clear(h.Counts)
		} else {
			h.Counts = make([]uint64, k)
		}
	} else if h.Level != level {
		return false, fmt.Errorf("%w: %d vs %d", ErrMixedLevels, h.Level, level)
	}
	if i0 == 0 && i1 == int(b.n) {
		if hist := b.hist(lanes); hist != nil {
			for s, c := range hist {
				h.Counts[s] += uint64(c)
			}
			return true, nil
		}
	}
	return false, nil
}
