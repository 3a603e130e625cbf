package server

import (
	"math"
	"slices"

	"symmeter/internal/symbolic"
)

// Lock-free read path over sealed data.
//
// A meter's block chain has exactly one mutable element: the tail. Everything
// before it is sealed — immutable until process exit. This file exploits that
// with an RCU-style publication protocol: each meterEntry carries an
// atomically-swapped *sealedIndex describing its sealed prefix, republished
// by the writer at the single moment a block seals (gains a successor). The
// index also carries a sparse time directory — the firstT of every sealed
// block — so a range query binary-searches to the blocks it covers instead
// of walking the whole chain.
//
// Readers never take the shard lock for sealed data. They briefly take it
// only to fold the live tail block (bounded: one block, ≤ BlockCap symbols),
// and only when the queried range can actually reach the tail — which a
// published atomic tailFirstT answers without locking. Writers pay one
// pointer swap per ~BlockCap points; readers pay two atomic loads.
//
// Safety rests on three invariants, all maintained under the shard's write
// lock (writers to one meter are serialized by it):
//
//  1. Sealed blocks are never mutated after the index that contains them is
//     published (seal-time trimming happens before the swap).
//  2. The slices inside a sealedIndex (blocks, firstTs, tables) are
//     append-only derivations: a newer index may share their backing arrays,
//     but only cells beyond every published length are ever written, and
//     readers index strictly below their own header's length.
//  3. tailFirstT is stored before the tail's first point is pushed, and the
//     index swap happens before tailFirstT moves to the next tail — so the
//     double-load in Meter.VisitRange (index, tailFirstT, index again) either
//     proves a consistent generation or falls back to the locked path.

// sealedIndex is the published, immutable view of one meter's sealed chain.
// A nil tables/blocks/firstTs (the shared emptyIndex) means nothing has
// sealed yet.
type sealedIndex struct {
	// tables is the meter's table history as of publication; every sealed
	// block's epoch indexes into it.
	tables []*symbolic.Table
	// blocks is the sealed prefix of the chain, in append order.
	blocks []block
	// firstTs is the sparse time directory: firstTs[i] == blocks[i].firstT.
	// Kept as a dedicated array so a range lookup's binary searches touch 8
	// bytes per probe; the only block struct rangeBlocks reads is the one
	// straddling the range start.
	firstTs []int64
	// total is the symbol count across all sealed blocks.
	total int
	// ordered reports that the sealed blocks are time-disjoint and ascending
	// (prev.lastT ≤ next.firstT for every adjacent pair), which is what makes
	// the directory binary-searchable. Streams that replay old timestamps
	// clear it; queries then fall back to a full chain walk with per-block
	// overlap checks — still correct, just unpruned.
	ordered bool
}

// emptyIndex is the published state of a meter with no sealed blocks yet.
// Shared: it is immutable.
var emptyIndex = sealedIndex{ordered: true}

// rangeBlocks returns the index range [lo, hi) of sealed blocks whose time
// span may intersect [t0, t1). O(log B) when the chain is time-ordered,
// [0, len) otherwise. Callers still per-block overlap-check: a block in
// range spans the query interval but may hold no point exactly inside it.
func (ix *sealedIndex) rangeBlocks(t0, t1 int64) (lo, hi int) {
	n := len(ix.blocks)
	if n == 0 || t0 >= t1 {
		return 0, 0
	}
	if !ix.ordered {
		return 0, n
	}
	// Both bounds search the dense directory, never the block structs. Blocks
	// from the first one starting at or past t0 onwards all end at or past
	// t0; of the blocks before it only the last can still reach t0, because an
	// ordered chain has lastT[i] ≤ firstT[i+1] < t0 for every earlier one.
	lo, _ = slices.BinarySearch(ix.firstTs, t0)
	if lo > 0 && ix.blocks[lo-1].lastT() >= t0 {
		lo--
	}
	// First block starting at or past t1: it and everything after begin
	// outside the half-open range.
	hi, _ = slices.BinarySearch(ix.firstTs[lo:], t1)
	hi += lo
	return lo, hi
}

// visitRange invokes fn for every sealed block in the pruned [lo, hi) range,
// building views against the index's own table history (not the live one —
// the live one may gain tables concurrently, and these are the tables the
// sealed epochs actually index).
func (ix *sealedIndex) visitRange(t0, t1 int64, fn func(BlockView)) {
	lo, hi := ix.rangeBlocks(t0, t1)
	for i := lo; i < hi; i++ {
		fn(viewOf(&ix.blocks[i], ix.tables))
	}
}

// appendRange appends a view of every sealed block in the pruned [lo, hi)
// range to dst, against the index's own table history.
func (ix *sealedIndex) appendRange(t0, t1 int64, dst []BlockView) []BlockView {
	lo, hi := ix.rangeBlocks(t0, t1)
	for i := lo; i < hi; i++ {
		dst = append(dst, viewOf(&ix.blocks[i], ix.tables))
	}
	return dst
}

// noTail is the tailFirstT sentinel while a meter has no live tail (or the
// tail has no points yet): no timestamp can be ≥ it under a half-open range,
// so every query may skip the tail.
const noTail = math.MaxInt64

// Meter is a lock-free handle to one meter's published state, obtained from
// Store.Meter or Store.ShardMeters without taking any shard lock. The handle
// stays valid for the store's lifetime (meters are never removed).
type Meter struct {
	e  *meterEntry
	sh *shard
}

// ID returns the meter's identifier.
func (m Meter) ID() uint64 { return m.e.id }

// TotalSymbols returns the meter's stored point count, tail included,
// without locking.
func (m Meter) TotalSymbols() int { return int(m.e.total.Load()) }

// LiveTailStart returns the first timestamp of the live (unsealed) tail
// block; ok is false when the meter has no live tail. Queries ending at or
// before this bound never touch a lock.
func (m Meter) LiveTailStart() (int64, bool) {
	tf := m.e.tailFirstT.Load()
	return tf, tf != noTail
}

// VisitRange invokes fn for every block that may hold points in [t0, t1):
// the directory-pruned sealed blocks, read lock-free from the published
// index, plus the live tail — folded under a brief shard read lock, and only
// when the range can actually reach it. Callers must still per-block filter
// with the view's timestamps (pruning is by block span, not by point).
// Visit order is unspecified; fn must be order-insensitive and must not
// retain the view's slices.
func (m Meter) VisitRange(t0, t1 int64, fn func(BlockView)) {
	if t0 >= t1 {
		return
	}
	e := m.e
	idx := e.idx.Load()
	if t1 <= e.tailFirstT.Load() && e.idx.Load() == idx {
		// The second load proves no seal was published between reading the
		// index and reading the tail bound, so they describe one generation:
		// every point of that generation's tail is ≥ tailFirstT ≥ t1, outside
		// the half-open range. Sealed data alone answers the query — no lock.
		idx.visitRange(t0, t1, fn)
		return
	}
	// The range may reach the live tail (or a seal raced us). Take the shard
	// read lock briefly: under it the published index is stable, the tail
	// cannot grow, and folding the tail is bounded by one block.
	m.sh.queryLocks.Add(1)
	m.sh.mu.RLock()
	idx = e.idx.Load()
	if tail := e.tail(); tail != nil && tail.n > 0 && tail.firstT < t1 && tail.lastT() >= t0 {
		fn(e.view(tail))
	}
	m.sh.mu.RUnlock()
	idx.visitRange(t0, t1, fn)
}

// CollectRange is the batch counterpart of VisitRange, built for callers
// that hand whole chains to batch kernels: views of every sealed block that
// may hold points in [t0, t1) are appended to dst and returned, while the
// live tail — whose payload keeps mutating and must be folded under the
// shard read lock — is delivered through the tail callback (invoked at most
// once, and only when the range can reach it).
//
// The returned sealed views MAY be retained and read after CollectRange
// returns, for as long as the store lives: sealed blocks are immutable once
// their index is published. The tail callback's view must not outlive the
// callback, exactly as with VisitRange. Order is unspecified; dst is
// extended in sealed-chain order after the tail callback fires.
func (m Meter) CollectRange(t0, t1 int64, dst []BlockView, tail func(BlockView)) []BlockView {
	if t0 >= t1 {
		return dst
	}
	e := m.e
	idx := e.idx.Load()
	if t1 <= e.tailFirstT.Load() && e.idx.Load() == idx {
		// Same double-load proof as VisitRange: the range cannot reach this
		// generation's tail, sealed data answers it lock-free.
		return idx.appendRange(t0, t1, dst)
	}
	m.sh.queryLocks.Add(1)
	m.sh.mu.RLock()
	idx = e.idx.Load()
	if tl := e.tail(); tl != nil && tl.n > 0 && tl.firstT < t1 && tl.lastT() >= t0 {
		tail(e.view(tl))
	}
	m.sh.mu.RUnlock()
	return idx.appendRange(t0, t1, dst)
}

// publish swaps in a new sealed index after e's former tail (now
// e.blocks[len(idx.blocks)]) was sealed. Caller holds the shard write lock.
// Allocation-free when Reserve pre-sized the index arena and directory.
func (e *meterEntry) publish() {
	old := e.idx.Load()
	n := len(old.blocks)
	b := &e.blocks[n]
	e.dirFirst = append(e.dirFirst, b.firstT)
	ni := e.nextIndexSlot()
	*ni = sealedIndex{
		tables:  e.tables,
		blocks:  e.blocks[:n+1],
		firstTs: e.dirFirst[:n+1],
		total:   old.total + int(b.n),
		ordered: old.ordered && (n == 0 || e.blocks[n-1].lastT() <= b.firstT),
	}
	e.idx.Store(ni)
}

// nextIndexSlot carves a sealedIndex struct from the reserve arena, falling
// back to the allocator for unreserved meters.
func (e *meterEntry) nextIndexSlot() *sealedIndex {
	if len(e.idxArena) > 0 {
		ni := &e.idxArena[0]
		e.idxArena = e.idxArena[1:]
		return ni
	}
	return new(sealedIndex)
}

// viewOf builds a read-only visitor view of one block under the given table
// history (the published index's for sealed blocks, the live one for the
// tail).
func viewOf(b *block, tables []*symbolic.Table) BlockView {
	table := tables[b.epoch]
	return BlockView{
		FirstT:  b.firstT,
		Stride:  b.stride,
		N:       int(b.n),
		Level:   int(b.level),
		Epoch:   int(b.epoch),
		Payload: b.payload,
		Hist:    b.hist,
		Sum:     b.sum,
		MinV:    b.minV,
		MaxV:    b.maxV,
		Values:  table.ReconstructionValues(),
	}
}
