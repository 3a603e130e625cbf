// Package query is the compressed-domain query engine over the server's
// packed block store: Sum, Mean, Count, Min, Max and Histogram over a time
// range [t0, t1), per meter and fleet-wide, computed without ever
// reconstructing the float stream.
//
// The paper's premise is that smart-meter analytics can run on the symbolic
// representation directly; this package is that premise as a query path.
// The per-meter fold it runs lives in internal/server, beside the index it
// reads (server.Meter's Count, Aggregate and Histogram); this package shapes
// answers from it and fans fleet-wide queries out. Five mechanisms make it
// fast:
//
//   - Lock-free sealed reads: every fold runs against the meter's
//     RCU-published sealed-block index, so queries never contend with ingest
//     for shard locks — the only lock the read path ever takes is a brief
//     one to fold the live tail block, and only when the range actually
//     reaches it.
//   - Time-directory pruning: per-meter range resolution binary-searches the
//     published firstT directory, touching O(log B + blocks in range)
//     instead of walking the whole chain.
//   - Block summaries + packed kernels, no views: the fold reads the index's
//     blocks in place. A block fully covered by the range contributes its
//     precomputed count/sum/histogram/min/max in O(1); a partly covered edge
//     block is scanned by internal/symbolic's SIMD-dispatched histogram
//     kernel straight into one run histogram per level and table, folded
//     into floats once per run rather than once per block.
//   - Per-table runs across meters: the store interns lookup tables, so
//     meters with byte-identical tables — pushed live or recovered from the
//     log — share one *Table. A fleet worker folds a meter whose table
//     recurs (it has an open run, or was the table of one of the last 8
//     meters folded without one) by table: one edge run per table stays
//     open across meters (server.FleetScratch, at most 8, the oldest
//     evicted first), a meter's edge span copies its whole payload bytes
//     into its run's staging buffer, one kernel call scans a full buffer,
//     and each run turns into floats once, when it is evicted or the query
//     ends. Any other meter takes the per-meter fold, so a fleet where every
//     household learned its own table opens no run. FleetHistogram stages
//     every meter's edges in one buffer per worker. The gain needs shared
//     tables — an expert table (§3.2), or benchmark/'s 8 house tables over
//     its meters. On a 2-vCPU guest BenchmarkFleetAggregate with 8 tables
//     over 1 024 meters fell from 390 to 228 ns per meter on one worker
//     (223 to 173 on two); with one table per meter it stayed within noise
//     of the per-meter fold (paired ratio 0.998 on one worker, 1.010 on
//     two).
//   - Per-core fan-out: a fleet-wide query runs min(GOMAXPROCS, shards)
//     workers pulling shards from a shared cursor. Each worker folds into an
//     accumulator and scratch of its own and publishes its partial once, so
//     workers share no cache line per meter, and none holds a shard lock
//     across a scan. Extra workers pay only where cores are idle: a query
//     running beside other busy callers gains little from them.
//
// Timestamps inside a block are arithmetic (firstT + i·stride), so range
// overlap is integer division, not search.
package query

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"symmeter/internal/server"
)

// The result types and typed histogram errors are the server's: the
// per-meter fold that produces them reads the published index in place, so
// it lives beside it (internal/server's fold.go).
type (
	// Agg is an order-insensitive aggregate over a time range. Min and Max
	// are reconstruction values and only meaningful when Count > 0.
	Agg = server.Agg
	// Histogram is a per-symbol count distribution at a single level.
	Histogram = server.Histogram
)

// Typed query errors, distinguishable with errors.Is.
var (
	// ErrMixedLevels reports a histogram over blocks or meters whose lookup
	// tables disagree on symbol level — the bins would not be comparable.
	ErrMixedLevels = server.ErrMixedLevels
	// ErrLevelTooFine reports a histogram at a level above 12 (4096 bins).
	ErrLevelTooFine = server.ErrLevelTooFine
)

// Engine answers compressed-domain queries against one store.
type Engine struct {
	store *server.Store
}

// New returns an engine over the store.
func New(store *server.Store) *Engine { return &Engine{store: store} }

// freelist is a fixed-capacity freelist of fold scratch, not a sync.Pool:
// under the race detector sync.Pool deliberately drops a fraction of Puts,
// which would fail the zero-malloc pins CI runs with -race. Channel ops
// never allocate, so steady-state queries stay at zero allocations on every
// build.
type freelist[T any] chan *T

func (f freelist[T]) get() *T {
	select {
	case sc := <-f:
		return sc
	default:
		return new(T)
	}
}

func (f freelist[T]) put(sc *T) {
	select {
	case f <- sc:
	default:
	}
}

// Per-meter queries fold with a FoldScratch, fleet workers with a
// FleetScratch. Capacity covers a fleet query's fan-out with headroom.
var (
	foldScratch  = make(freelist[server.FoldScratch], 64)
	fleetScratch = make(freelist[server.FleetScratch], 64)
)

// Aggregate computes count, sum, min and max for one meter over [t0, t1) in
// a single pruned pass over the published index. ok reports whether the
// meter exists.
func (e *Engine) Aggregate(meterID uint64, t0, t1 int64) (Agg, bool) {
	m, ok := e.store.Meter(meterID)
	if !ok {
		return Agg{}, false
	}
	var a Agg
	sc := foldScratch.get()
	m.Aggregate(&a, sc, t0, t1)
	foldScratch.put(sc)
	return a, true
}

// Count returns the number of stored points for the meter in [t0, t1).
// Count never touches a payload: each block contributes its overlap, pure
// index arithmetic.
func (e *Engine) Count(meterID uint64, t0, t1 int64) (uint64, bool) {
	m, ok := e.store.Meter(meterID)
	if !ok {
		return 0, false
	}
	return m.Count(t0, t1), true
}

// HistogramInto computes the per-symbol distribution for one meter over
// [t0, t1) into h, reusing h.Counts' capacity, so a caller that polls
// allocates nothing. ok reports whether the meter exists; a range that
// covers no points leaves h.Counts empty.
func (e *Engine) HistogramInto(h *Histogram, meterID uint64, t0, t1 int64) (bool, error) {
	h.Level = 0
	h.Counts = h.Counts[:0]
	m, ok := e.store.Meter(meterID)
	if !ok {
		return false, nil
	}
	return true, m.Histogram(h, t0, t1)
}

// fanOut runs worker on nw workers — the calling goroutine and nw-1 others —
// and returns when all are done. Workers pull shard indexes from one shared
// cursor through next, which reports false once the shards run out: shards,
// not meters, are the work items, so the cursor is touched once per shard.
// A worker keeps its accumulator, error and scratch in its own frame and
// writes its partial once, on return, so no two workers write one cache line
// per meter. This is pure read-side fan-out: no shard lock is held across
// any of it (each meter's fold locks at most briefly, for its own live
// tail).
func (e *Engine) fanOut(nw int, worker func(w int, next func() (int, bool))) {
	shards := int64(e.store.NumShards())
	var cursor atomic.Int64
	next := func() (int, bool) {
		i := cursor.Add(1) - 1
		return int(i), i < shards
	}
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go func() {
			defer wg.Done()
			worker(w, next)
		}()
	}
	worker(0, next)
	wg.Wait()
}

// poolSize is a fleet query's fan-out: a worker per core, and no more than
// one per shard (shards are the work items). GOMAXPROCS is read per query.
func (e *Engine) poolSize() int {
	return min(runtime.GOMAXPROCS(0), e.store.NumShards())
}

// FleetAggregate computes count/sum/min/max across every meter in [t0, t1)
// on poolSize workers, reading published indexes lock-free and merging
// per-worker partials. Each worker stages its meters' edge spans per table
// (Meter.AggregateRuns), so meters sharing a table fold as one run.
func (e *Engine) FleetAggregate(t0, t1 int64) Agg {
	partials := make([]Agg, e.poolSize())
	e.fanOut(len(partials), func(w int, next func() (int, bool)) {
		var a Agg
		fs := fleetScratch.get()
		for s, ok := next(); ok; s, ok = next() {
			for _, m := range e.store.ShardMeters(s) {
				m.AggregateRuns(&a, fs, t0, t1)
			}
		}
		fs.FlushAggregate(&a)
		fleetScratch.put(fs)
		partials[w] = a
	})
	var out Agg
	for _, p := range partials {
		out.Merge(p)
	}
	return out
}

// FleetCount returns the number of stored points across every meter in
// [t0, t1) on poolSize workers. Like Count, it reads no payload.
func (e *Engine) FleetCount(t0, t1 int64) uint64 {
	partials := make([]uint64, e.poolSize())
	e.fanOut(len(partials), func(w int, next func() (int, bool)) {
		var n uint64
		for s, ok := next(); ok; s, ok = next() {
			for _, m := range e.store.ShardMeters(s) {
				n += m.Count(t0, t1)
			}
		}
		partials[w] = n
	})
	var out uint64
	for _, n := range partials {
		out += n
	}
	return out
}

// FleetHistogram returns the fleet-wide per-symbol distribution over
// [t0, t1) (FleetHistogramInto into a new histogram).
func (e *Engine) FleetHistogram(t0, t1 int64) (Histogram, error) {
	var h Histogram
	if err := e.FleetHistogramInto(&h, t0, t1); err != nil {
		return Histogram{}, err
	}
	return h, nil
}

// FleetHistogramInto computes the fleet-wide per-symbol distribution over
// [t0, t1) into h on poolSize workers, reusing h.Counts' capacity, so a
// caller that polls allocates no more than FleetCount does. All covered
// blocks must share one level. Each worker folds into the counts of its
// pooled FleetScratch, staging its meters' edge spans in one buffer
// (Meter.HistogramRuns) that it scans when it fills.
func (e *Engine) FleetHistogramInto(h *Histogram, t0, t1 int64) error {
	type partial struct {
		fs  *server.FleetScratch
		h   *Histogram
		err error
	}
	partials := make([]partial, e.poolSize())
	e.fanOut(len(partials), func(w int, next func() (int, bool)) {
		fs := fleetScratch.get()
		p := partial{fs: fs, h: fs.Histogram()}
		for s, ok := next(); ok && p.err == nil; s, ok = next() {
			for _, m := range e.store.ShardMeters(s) {
				if p.err = m.HistogramRuns(p.h, fs, t0, t1); p.err != nil {
					break
				}
			}
		}
		fs.FlushHistogram(p.h)
		partials[w] = p
	})
	// A scratch goes back to the freelist only once its counts are merged.
	h.Level, h.Counts = 0, h.Counts[:0]
	var err error
	for _, p := range partials {
		switch {
		case err != nil:
		case p.err != nil:
			err = p.err
		case len(h.Counts) == 0:
			h.Level, h.Counts = p.h.Level, append(h.Counts, p.h.Counts...)
		case len(p.h.Counts) > 0 && h.Level != p.h.Level:
			err = fmt.Errorf("%w: %d vs %d", ErrMixedLevels, h.Level, p.h.Level)
		default:
			for s, c := range p.h.Counts {
				h.Counts[s] += c
			}
		}
		fleetScratch.put(p.fs)
	}
	return err
}
