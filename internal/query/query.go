// Package query is the compressed-domain query engine over the server's
// packed block store: Sum, Mean, Count, Min, Max and Histogram over a time
// range [t0, t1), per meter and fleet-wide, computed without ever
// reconstructing the float stream.
//
// The paper's premise is that smart-meter analytics can run on the symbolic
// representation directly; this package is that premise as a query path.
// Four mechanisms make it fast:
//
//   - Lock-free sealed reads: every aggregate runs against the meter's
//     RCU-published sealed-block index (server.Meter.CollectRange), so
//     queries never contend with ingest for shard locks — the only lock the
//     read path ever takes is a brief one to fold the live tail block, and
//     only when the range actually reaches it.
//   - Time-directory pruning: per-meter range resolution binary-searches the
//     published firstT directory, touching O(log B + blocks in range)
//     instead of walking the whole chain.
//   - Block summaries + batched kernels: a block fully covered by the range
//     contributes its precomputed count/sum/histogram/min/max in O(1);
//     partially-covered edge blocks are gathered as spans and handed to one
//     batch kernel call per meter (internal/symbolic's SIMD-dispatched
//     histogram kernels), folded into floats once per meter rather than once
//     per block.
//   - Per-core fan-out: a fleet-wide query runs min(GOMAXPROCS, shards)
//     workers pulling shards from a shared cursor, so query parallelism
//     scales with cores independently of shard count and never holds a
//     shard lock across a scan.
//
// Timestamps inside a block are arithmetic (firstT + i·stride), so range
// overlap is integer division, not search.
package query

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// maxFoldLevel bounds the stack histogram used to fold partial blocks in
// one payload scan; finer levels fall back to the general aggregate walk.
const maxFoldLevel = 8

// maxHistogramLevel bounds Histogram results (4096 bins); finer alphabets
// would return impractically wide histograms.
const maxHistogramLevel = 12

// Typed query errors, distinguishable with errors.Is.
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

// merge folds another aggregate in.
func (a *Agg) merge(b Agg) {
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

// Total returns the histogram mass.
func (h *Histogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Engine answers compressed-domain queries against one store.
type Engine struct {
	store *server.Store
}

// New returns an engine over the store.
func New(store *server.Store) *Engine { return &Engine{store: store} }

// overlap returns the index range [i0, i1) of points in v whose timestamps
// fall inside [t0, t1). Pure integer arithmetic: point i lives at
// FirstT + i·Stride. Views travel by pointer through the fold helpers: a
// BlockView is 136 bytes, and copying it per block showed in fleet profiles.
func overlap(v *server.BlockView, t0, t1 int64) (int, int) {
	if t0 >= t1 || v.N == 0 || t1 <= v.FirstT || t0 > v.LastT() {
		return 0, 0
	}
	if v.Stride == 0 { // single-point block, FirstT already known in range
		return 0, 1
	}
	i0 := 0
	if t0 > v.FirstT {
		i0 = int(ceilDiv(t0-v.FirstT, v.Stride))
	}
	i1 := v.N
	if t1 <= v.LastT() {
		i1 = int(ceilDiv(t1-v.FirstT, v.Stride)) // first index at or past t1
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

// meterScratch is the reusable per-meter gather state of the batched fold:
// the sealed views CollectRange returns, the edge spans of the current run
// (one level, one table) awaiting one batch kernel call, and the shared
// histogram those spans fold into. Pooled so steady-state queries allocate
// nothing once the slices have grown to the working set.
type meterScratch struct {
	views  []server.BlockView
	spans  []symbolic.PackedSpan
	hist   []uint64
	level  int
	values []float64
}

// scratchFree is a fixed-capacity freelist of meterScratch, not a sync.Pool:
// under the race detector sync.Pool deliberately drops a fraction of Puts,
// which would fail the zero-malloc pins CI runs with -race. Channel ops
// never allocate, so steady-state queries stay at zero allocations on every
// build. Capacity covers a fleet query's fan-out with headroom.
var scratchFree = make(chan *meterScratch, 64)

func getScratch() *meterScratch {
	select {
	case sc := <-scratchFree:
		return sc
	default:
		return new(meterScratch)
	}
}

func putScratch(sc *meterScratch) {
	select {
	case scratchFree <- sc:
	default:
	}
}

// fold is the one aggregate step, for sealed views and the live tail alike:
// a block fully covered by [t0, t1) adds its summary, an edge finer than
// maxFoldLevel takes the accumulator walk, and any other edge joins the
// current span run — flushed first when its level or table differs, so one
// batch kernel call folds each run. Extremes are compared in the value
// domain: no monotonicity of Values in the symbol index is assumed.
func (sc *meterScratch) fold(a *Agg, v *server.BlockView, t0, t1 int64) {
	i0, i1 := overlap(v, t0, t1)
	switch {
	case i0 == i1:
	case i0 == 0 && i1 == v.N:
		a.observe(v.MinV, v.MaxV)
		a.Count += uint64(v.N)
		a.Sum += v.Sum
	case v.Level > maxFoldLevel:
		sum, lo, hi := symbolic.PackedRangeAggregate(v.Values, v.Payload, v.Level, i0, i1)
		a.observe(lo, hi)
		a.Count += uint64(i1 - i0)
		a.Sum += sum
	default:
		if v.Level != sc.level || !sameValues(v.Values, sc.values) {
			sc.flushSpans(a)
			sc.level, sc.values = v.Level, v.Values
		}
		sc.spans = append(sc.spans, symbolic.PackedSpan{Payload: v.Payload, Start: i0, End: i1})
	}
}

// flushSpans folds the gathered edge spans — all at sc.level, under
// sc.values — into a: one batch histogram kernel call, one histogram→float
// fold. Clears the span list.
func (sc *meterScratch) flushSpans(a *Agg) {
	if len(sc.spans) == 0 {
		return
	}
	k := 1 << uint(sc.level)
	if cap(sc.hist) < k {
		sc.hist = make([]uint64, k)
	} else {
		sc.hist = sc.hist[:k]
		clear(sc.hist)
	}
	symbolic.PackedRangeHistogramBatch(sc.hist, sc.level, sc.spans)
	if c, s, lo, hi := symbolic.HistogramAggregate(sc.hist, sc.values); c > 0 {
		a.observe(lo, hi)
		a.Count += c
		a.Sum += s
	}
	sc.spans = sc.spans[:0]
}

// sameValues reports whether two reconstruction-value slices are the same
// array — the cheap identity check that decides whether edge spans may share
// one histogram fold. Tables are immutable, so identity implies equality.
func sameValues(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// aggregateMeter folds one meter's [t0, t1) contribution into a: every view
// CollectRange yields goes through fold. The tail's span is flushed inside
// the callback, while the shard read lock still freezes its payload; sealed
// views are immutable, so their runs flush after the collect.
func (e *Engine) aggregateMeter(a *Agg, sc *meterScratch, m server.Meter, t0, t1 int64) {
	sc.views = m.CollectRange(t0, t1, sc.views[:0], func(v server.BlockView) {
		sc.fold(a, &v, t0, t1)
		sc.flushSpans(a)
	})
	for i := range sc.views {
		sc.fold(a, &sc.views[i], t0, t1)
	}
	sc.flushSpans(a)
}

// Aggregate computes count, sum, min and max for one meter over [t0, t1) in
// a single pruned pass over the published index. ok reports whether the
// meter exists.
func (e *Engine) Aggregate(meterID uint64, t0, t1 int64) (Agg, bool) {
	m, ok := e.store.Meter(meterID)
	if !ok {
		return Agg{}, false
	}
	var a Agg
	sc := getScratch()
	e.aggregateMeter(&a, sc, m, t0, t1)
	putScratch(sc)
	return a, true
}

// Count returns the number of stored points for the meter in [t0, t1).
// Count never touches a payload: each view contributes its overlap, pure
// index arithmetic.
func (e *Engine) Count(meterID uint64, t0, t1 int64) (uint64, bool) {
	m, ok := e.store.Meter(meterID)
	if !ok {
		return 0, false
	}
	var n uint64
	sc := getScratch()
	sc.views = m.CollectRange(t0, t1, sc.views[:0], func(v server.BlockView) {
		i0, i1 := overlap(&v, t0, t1)
		n += uint64(i1 - i0)
	})
	for i := range sc.views {
		i0, i1 := overlap(&sc.views[i], t0, t1)
		n += uint64(i1 - i0)
	}
	putScratch(sc)
	return n, true
}

// Sum returns the sum of reconstruction values for the meter in [t0, t1).
// It is Aggregate's Sum — one fold, so the two are bit-identical by
// construction.
func (e *Engine) Sum(meterID uint64, t0, t1 int64) (float64, bool) {
	a, ok := e.Aggregate(meterID, t0, t1)
	return a.Sum, ok
}

// Mean returns the mean reconstruction value in [t0, t1); NaN when the
// range is empty.
func (e *Engine) Mean(meterID uint64, t0, t1 int64) (float64, bool) {
	a, ok := e.Aggregate(meterID, t0, t1)
	if !ok {
		return 0, false
	}
	return a.Mean(), true
}

// Min returns the smallest reconstruction value in [t0, t1); ok is false
// when the meter is unknown or the range holds no points.
func (e *Engine) Min(meterID uint64, t0, t1 int64) (float64, bool) {
	a, ok := e.Aggregate(meterID, t0, t1)
	return a.Min, ok && a.Count > 0
}

// Max is Min's counterpart.
func (e *Engine) Max(meterID uint64, t0, t1 int64) (float64, bool) {
	a, ok := e.Aggregate(meterID, t0, t1)
	return a.Max, ok && a.Count > 0
}

// foldHistogram adds one block's covered counts into h, growing or checking
// h.Level. Fully-covered blocks with a stored histogram are O(k); everything
// else is one kernel scan.
func foldHistogram(h *Histogram, v *server.BlockView, t0, t1 int64) error {
	i0, i1 := overlap(v, t0, t1)
	if i0 == i1 {
		return nil
	}
	if v.Level > maxHistogramLevel {
		return fmt.Errorf("%w: level %d > %d", ErrLevelTooFine, v.Level, maxHistogramLevel)
	}
	if len(h.Counts) == 0 {
		h.Level = v.Level
		k := 1 << uint(v.Level)
		if cap(h.Counts) >= k {
			h.Counts = h.Counts[:k]
			clear(h.Counts)
		} else {
			h.Counts = make([]uint64, k)
		}
	} else if h.Level != v.Level {
		return fmt.Errorf("%w: %d vs %d", ErrMixedLevels, h.Level, v.Level)
	}
	if i0 == 0 && i1 == v.N && v.Hist != nil {
		for s, c := range v.Hist {
			h.Counts[s] += uint64(c)
		}
		return nil
	}
	symbolic.PackedRangeHistogram(h.Counts, v.Payload, v.Level, i0, i1)
	return nil
}

// HistogramInto computes the per-symbol distribution for one meter over
// [t0, t1) into h, reusing h.Counts' capacity — the zero-allocation form of
// Histogram for callers that poll. ok reports whether the meter exists; a
// range that covers no points leaves h.Counts empty.
func (e *Engine) HistogramInto(h *Histogram, meterID uint64, t0, t1 int64) (bool, error) {
	h.Level = 0
	h.Counts = h.Counts[:0]
	m, ok := e.store.Meter(meterID)
	if !ok {
		return false, nil
	}
	sc := getScratch()
	err := histogramMeter(h, sc, m, t0, t1)
	putScratch(sc)
	return true, err
}

// histogramMeter folds one meter's [t0, t1) distribution into h over the
// batch read path: the tail inside the collect callback, sealed views from
// the collected slice. Fold order matches the aggregate path; counts are
// integers, so order never shows in the result.
func histogramMeter(h *Histogram, sc *meterScratch, m server.Meter, t0, t1 int64) error {
	var ferr error
	sc.views = m.CollectRange(t0, t1, sc.views[:0], func(v server.BlockView) {
		ferr = foldHistogram(h, &v, t0, t1)
	})
	for i := range sc.views {
		if ferr != nil {
			return ferr
		}
		ferr = foldHistogram(h, &sc.views[i], t0, t1)
	}
	return ferr
}

// Histogram computes the per-symbol distribution for one meter over [t0, t1).
func (e *Engine) Histogram(meterID uint64, t0, t1 int64) (Histogram, bool, error) {
	var h Histogram
	ok, err := e.HistogramInto(&h, meterID, t0, t1)
	if err != nil {
		return Histogram{}, ok, err
	}
	return h, ok, nil
}

// forMeters runs fold over every meter handle in the store on nw workers
// pulling shards from a shared cursor. fold runs on worker w for each meter;
// meters of one shard are processed by a single worker, different shards
// land on different workers as they free up. This is pure read-side
// fan-out: no shard lock is held across any of it (each CollectRange inside
// fold locks at most briefly, for its own live tail).
func (e *Engine) forMeters(nw int, fold func(w int, m server.Meter)) {
	shards := e.store.NumShards()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= shards {
					return
				}
				for _, m := range e.store.ShardMeters(i) {
					fold(w, m)
				}
			}
		}(w)
	}
	wg.Wait()
}

// poolSize is a fleet query's fan-out: a worker per core, and no more than
// one per shard (shards are the work items). GOMAXPROCS is read per query.
func (e *Engine) poolSize() int {
	return min(runtime.GOMAXPROCS(0), e.store.NumShards())
}

// FleetAggregate computes count/sum/min/max across every meter in [t0, t1)
// on poolSize workers, reading published indexes lock-free and merging
// per-worker partials. Each worker folds its meters with one reused scratch.
func (e *Engine) FleetAggregate(t0, t1 int64) Agg {
	nw := e.poolSize()
	partials := make([]Agg, nw)
	scratches := make([]*meterScratch, nw)
	for i := range scratches {
		scratches[i] = getScratch()
	}
	e.forMeters(nw, func(w int, m server.Meter) {
		e.aggregateMeter(&partials[w], scratches[w], m, t0, t1)
	})
	var out Agg
	for i := range partials {
		out.merge(partials[i])
		putScratch(scratches[i])
	}
	return out
}

// FleetSum returns the fleet-wide sum and count over [t0, t1): the same
// batched fold as FleetAggregate.
func (e *Engine) FleetSum(t0, t1 int64) (float64, uint64) {
	a := e.FleetAggregate(t0, t1)
	return a.Sum, a.Count
}

// FleetHistogram computes the fleet-wide per-symbol distribution over
// [t0, t1) on poolSize workers. All covered blocks must share one level.
func (e *Engine) FleetHistogram(t0, t1 int64) (Histogram, error) {
	nw := e.poolSize()
	partials := make([]Histogram, nw)
	errs := make([]error, nw)
	scratches := make([]*meterScratch, nw)
	for i := range scratches {
		scratches[i] = getScratch()
	}
	e.forMeters(nw, func(w int, m server.Meter) {
		if errs[w] != nil {
			return
		}
		errs[w] = histogramMeter(&partials[w], scratches[w], m, t0, t1)
	})
	for i := range scratches {
		putScratch(scratches[i])
	}
	var out Histogram
	for i := 0; i < nw; i++ {
		if errs[i] != nil {
			return Histogram{}, errs[i]
		}
		p := &partials[i]
		if len(p.Counts) == 0 {
			continue
		}
		if out.Counts == nil {
			out.Level = p.Level
			out.Counts = make([]uint64, len(p.Counts))
		} else if out.Level != p.Level {
			return Histogram{}, fmt.Errorf("%w: %d vs %d", ErrMixedLevels, out.Level, p.Level)
		}
		for s, c := range p.Counts {
			out.Counts[s] += c
		}
	}
	return out, nil
}
