package server

import (
	"math/bits"

	"symmeter/internal/symbolic"
)

// The fleet fold: AggregateRuns and HistogramRuns are Aggregate and
// Histogram for a worker that folds many meters in a row. They resolve each
// meter's range exactly as the per-meter fold does and add fully covered
// blocks the same way, but an edge span of a table that other meters share
// does not cost a kernel call and a float fold of its own: its whole
// payload bytes are copied into a staging buffer (the symbols sharing a byte
// with points outside the span, at most one byte at either end at levels
// 1, 2, 4 and 8, are counted directly), and the buffer is scanned by one
// PackedRangeHistogram call when it fills. Aggregate edges stage per table —
// the store interns tables, so meters sharing one share its run — and each
// run turns into floats once, when it is evicted or the worker flushes. A
// fleet of meters that share a few tables thus pays a kernel call per
// buffer and a float fold per table instead of one of each per meter.
//
// A table earns runs only once it recurs: a meter whose current table has
// no open run, and was not the table of one of the last few meters folded
// without one, is folded by Aggregate itself. A fleet where every meter has
// its own table opens no run at all and pays the per-meter fold's cost plus
// one short scan of the recently seen tables per meter.

const (
	// fleetRuns bounds a fleet worker's open aggregate runs and the tables
	// it remembers having folded without one. A table that recurs on a full
	// set evicts one run, never all.
	fleetRuns = 8
	// stageBytes is one staging buffer: at least a whole block's payload at
	// every level a staged fold reads (768 B at level 12), so a span always
	// fits once the buffer is scanned.
	stageBytes = 1024
)

// FleetScratch is a fleet worker's reusable edge state: a bounded set of
// open aggregate runs keyed by interned table, each an integer histogram
// plus a staging buffer; the run of the meter being folded on its own; and
// a fleet histogram's counts and one staging buffer (counts do not depend
// on the table). A caller reuses one per worker goroutine and closes each
// query with FlushAggregate or FlushHistogram; the zero value is ready.
type FleetScratch struct {
	// keys[i] is the table of open run i, for i < open: a lookup reads
	// nothing else.
	keys [fleetRuns]*symbolic.Table
	open int
	// victim is the run the next opening on a full set evicts: runs are
	// evicted in the order they opened, so which run goes is fixed by the
	// data.
	victim int
	// seen holds the last fleetRuns tables of meters folded without a run,
	// next the slot the next one takes; a table found there recurs.
	seen [fleetRuns]*symbolic.Table
	next int
	// solo is the per-meter fold's scratch, for meters folded without a run
	// and for a live tail's edge that cannot join one.
	solo   FoldScratch
	runs   [fleetRuns]edgeRun
	counts Histogram // the worker's fleet histogram, reused (Histogram)
	hist   stage
	// The trailing pad keeps every field above at least a cache line from
	// the end of the struct, so two workers' scratches never share a line
	// however the allocator places them.
	_ [64]byte
}

// edgeRun is one table's open aggregate run: its table's values and level
// beside its histogram, then its staging buffer.
type edgeRun struct {
	values []float64
	level  int
	hist   [1 << maxFoldLevel]uint64
	stage
}

// stage holds packed symbols at one level as whole bytes, each copied span
// starting on a symbol boundary, so the buffer is itself a valid headerless
// payload.
type stage struct {
	n   int
	buf [stageBytes]byte
}

// AggregateRuns folds the meter's count, sum, min and max over [t0, t1)
// into a and fs. A meter whose current table is not shared — no open run,
// not recurring — is folded by Aggregate. Otherwise whole blocks add their
// summaries to a, edges finer than maxFoldLevel fold into a value by value,
// and every other edge stages into fs's run for its table, whose floats
// reach a only when the run is evicted or FlushAggregate closes the set.
// The live tail's edge, folded under the shard read lock, joins an open run
// only when it fits the run's buffer, and otherwise folds through fs.solo,
// so no run is evicted and no buffer scanned while ingest on the shard
// waits. Count, Min and Max come out bit-equal to merging the meters'
// Aggregate answers; Sum is added in another order and may differ in its
// last bits, in an order fixed by the data and the meter sequence.
func (m Meter) AggregateRuns(a *Agg, fs *FleetScratch, t0, t1 int64) {
	if !fs.shared(m.e.idx.Load().tables) {
		m.Aggregate(a, &fs.solo, t0, t1)
		return
	}
	ix, lo, hi := m.resolve(t0, t1, func(b *block, firstT int64, tables []*symbolic.Table, _ []uint16) {
		fs.foldTail(a, b, firstT, tables, t0, t1)
	})
	for i := lo; i < hi; i++ {
		fs.fold(a, &ix.blocks[i], ix.firstTs[i], ix.tables, t0, t1)
	}
	fs.solo.flush(a)
}

// shared reports whether the last table of a meter's sealed history has an
// open run or recurs.
func (fs *FleetScratch) shared(tables []*symbolic.Table) bool {
	if len(tables) == 0 {
		return false
	}
	t := tables[len(tables)-1]
	return fs.find(t) >= 0 || fs.recurs(t)
}

// fold is AggregateRuns' step per sealed block.
func (fs *FleetScratch) fold(a *Agg, b *block, firstT int64, tables []*symbolic.Table, t0, t1 int64) {
	i0, i1 := b.overlap(firstT, t0, t1)
	if a.foldDirect(b, tables, i0, i1) {
		return
	}
	level, t := int(b.level), tables[b.epoch]
	if i := fs.find(t); i >= 0 {
		r := &fs.runs[i]
		r.add(r.hist[:1<<level], b.payload, level, i0, i1)
		return
	}
	// A run's first span is scanned in place: copying it pays off only once
	// another meter joins the run.
	r := fs.run(a, t, level)
	symbolic.PackedRangeHistogram(r.hist[:1<<level], b.payload, level, i0, i1)
}

// foldTail is fold for the live tail, under the shard read lock, and does
// at most one block's work: an edge whose table has an open run with room
// for it is staged, and any other goes into fs.solo's run, which is empty
// when the tail, folded first, reaches it and is flushed once the meter is
// done.
func (fs *FleetScratch) foldTail(a *Agg, b *block, firstT int64, tables []*symbolic.Table, t0, t1 int64) {
	i0, i1 := b.overlap(firstT, t0, t1)
	if a.foldDirect(b, tables, i0, i1) {
		return
	}
	level, t := int(b.level), tables[b.epoch]
	if i := fs.find(t); i >= 0 && fs.runs[i].fits(level, i0, i1) {
		r := &fs.runs[i]
		r.add(r.hist[:1<<level], b.payload, level, i0, i1)
		return
	}
	fs.solo.span(a, b, t, i0, i1)
}

// find returns the index of table t's open run, or -1.
func (fs *FleetScratch) find(t *symbolic.Table) int {
	for i, k := range fs.keys[:fs.open] {
		if k == t {
			return i
		}
	}
	return -1
}

// recurs reports whether t is among the tables of the last fleetRuns
// meters folded without a run, and enters it there when it is not.
func (fs *FleetScratch) recurs(t *symbolic.Table) bool {
	for _, k := range fs.seen {
		if k == t {
			return true
		}
	}
	fs.seen[fs.next] = t
	fs.next = (fs.next + 1) % fleetRuns
	return false
}

// run opens a run for table t at the given level — on a full set in the
// place of the oldest run, whose floats go into a.
func (fs *FleetScratch) run(a *Agg, t *symbolic.Table, level int) *edgeRun {
	i := fs.open
	if i < fleetRuns {
		fs.open++
	} else {
		i = fs.victim
		fs.victim = (i + 1) % fleetRuns
		fs.runs[i].flush(a)
	}
	fs.keys[i] = t
	r := &fs.runs[i]
	r.values, r.level = t.ReconstructionValues(), level
	clear(r.hist[:1<<level])
	return r
}

// flush scans the run's staged bytes and folds its histogram into a.
func (r *edgeRun) flush(a *Agg) {
	hist := r.hist[:1<<r.level]
	r.scan(hist, r.level)
	a.foldRun(hist, r.values)
}

// FlushAggregate folds every open run into a, in the order the runs
// opened, and leaves fs ready for the next query: a query's fold order
// depends on its own meters only.
func (fs *FleetScratch) FlushAggregate(a *Agg) {
	for i := range fs.open {
		fs.runs[i].flush(a)
		fs.keys[i] = nil
	}
	fs.open, fs.victim = 0, 0
	fs.seen, fs.next = [fleetRuns]*symbolic.Table{}, 0
}

// Histogram returns fs's histogram, emptied, for a worker to fold its
// meters into with HistogramRuns. Its counts stay in fs, so a warm worker
// allocates none; they are valid until the next Histogram call.
func (fs *FleetScratch) Histogram() *Histogram {
	fs.counts.Level, fs.counts.Counts = 0, fs.counts.Counts[:0]
	return &fs.counts
}

// HistogramRuns adds the meter's per-symbol distribution over [t0, t1) into
// h and fs, checking levels as Histogram does: whole blocks with stored
// lanes add them to h, and every other span stages into fs's one buffer,
// whose counts reach h when it fills or at FlushHistogram. The live tail's
// span, under the shard read lock, is counted straight into h when the
// buffer has no room for it. The counts come out exactly those of summing
// the meters' Histogram answers.
func (m Meter) HistogramRuns(h *Histogram, fs *FleetScratch, t0, t1 int64) error {
	var err error
	ix, lo, hi := m.resolve(t0, t1, func(b *block, firstT int64, _ []*symbolic.Table, lanes []uint16) {
		err = fs.foldHist(h, b, firstT, lanes, t0, t1, true)
	})
	for i := lo; i < hi && err == nil; i++ {
		err = fs.foldHist(h, &ix.blocks[i], ix.firstTs[i], ix.lanes, t0, t1, false)
	}
	return err
}

// foldHist is HistogramRuns' step per block; for the live tail, a span the
// buffer has no room for is scanned into h alone rather than emptying the
// buffer first.
func (fs *FleetScratch) foldHist(h *Histogram, b *block, firstT int64, lanes []uint16, t0, t1 int64, tail bool) error {
	i0, i1 := b.overlap(firstT, t0, t1)
	if done, err := h.foldDirect(b, lanes, i0, i1); done || err != nil {
		return err
	}
	if tail && !fs.hist.fits(h.Level, i0, i1) {
		symbolic.PackedRangeHistogram(h.Counts, b.payload, h.Level, i0, i1)
		return nil
	}
	fs.hist.add(h.Counts, b.payload, h.Level, i0, i1)
	return nil
}

// FlushHistogram scans the staged bytes into h and leaves fs ready for the
// next query. h must be the histogram HistogramRuns staged for, or empty.
func (fs *FleetScratch) FlushHistogram(h *Histogram) {
	fs.hist.scan(h.Counts, h.Level)
}

// add counts the symbols [i0, i1) of a packed payload at level into hist and
// the stage. Symbols fall on byte boundaries every g = 8/gcd(level, 8)
// positions; the whole groups of the span are copied into the buffer —
// scanned into hist first when they do not fit — and the fewer than g
// symbols at either end are counted into hist one by one.
func (st *stage) add(hist []uint64, payload []byte, level, i0, i1 int) {
	a, b := groups(level, i0, i1)
	if a >= b {
		countSymbols(hist, payload, level, i0, i1)
		return
	}
	countSymbols(hist, payload, level, i0, a)
	countSymbols(hist, payload, level, b, i1)
	span := payload[a*level>>3 : b*level>>3]
	if len(span) > len(st.buf)-st.n {
		st.scan(hist, level)
	}
	st.n += copy(st.buf[st.n:], span)
}

// fits reports whether add can take the symbols [i0, i1) at level without
// scanning the buffer first.
func (st *stage) fits(level, i0, i1 int) bool {
	a, b := groups(level, i0, i1)
	return a >= b || (b-a)*level>>3 <= len(st.buf)-st.n
}

// groups returns the whole byte groups [a, b) of the symbols [i0, i1) at
// level: a and b are the first multiples of g = 8/gcd(level, 8) at or after
// i0 and at or before i1, and a >= b when the span holds no whole group.
func groups(level, i0, i1 int) (a, b int) {
	g := 8 >> bits.TrailingZeros(uint(level)|8) // 8 / gcd(level, 8)
	return (i0 + g - 1) / g * g, i1 / g * g
}

// scan counts the staged symbols into hist and empties the stage.
func (st *stage) scan(hist []uint64, level int) {
	if st.n > 0 {
		symbolic.PackedRangeHistogram(hist, st.buf[:st.n], level, 0, st.n*8/level)
		st.n = 0
	}
}

// countSymbols adds the symbols [i0, i1) of a packed payload into hist one
// by one: the few that share a byte with symbols outside a staged span.
func countSymbols(hist []uint64, payload []byte, level, i0, i1 int) {
	if level == 4 { // the paper's k = 16: a nibble, read in place
		for i := i0; i < i1; i++ {
			hist[payload[i>>1]>>(4-4*(i&1))&15]++
		}
		return
	}
	for i := i0; i < i1; i++ {
		hist[symbolic.PackedSymbolAt(payload, level, i)]++
	}
}
