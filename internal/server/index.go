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
//  2. The slices inside a sealedIndex (blocks, firstTs, lanes, tables) are
//     append-only derivations: a newer index may share their backing arrays,
//     but only cells beyond every published length are ever written, and
//     readers index strictly below their own header's length.
//  3. tailFirstT is stored before the tail's first point is pushed, and the
//     index swap happens before tailFirstT moves to the next tail — so the
//     double-load in Meter.resolve (index, tailFirstT, index again) either
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
	// firstTs is the sparse time directory: firstTs[i] is the first
	// timestamp of blocks[i], which the block itself does not keep. A
	// dedicated array, so a range lookup's binary searches touch 8 bytes per
	// probe; the only block struct rangeBlocks reads is the one straddling
	// the range start.
	firstTs []int64
	// lanes is the meter's histogram slab as of publication: every sealed
	// block's lanes, which block.lanes indexes.
	lanes []uint16
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
	if lo > 0 && ix.blocks[lo-1].lastT(ix.firstTs[lo-1]) >= t0 {
		lo--
	}
	// First block starting at or past t1: it and everything after begin
	// outside the half-open range.
	hi, _ = slices.BinarySearch(ix.firstTs[lo:], t1)
	hi += lo
	return lo, hi
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

// TotalSymbols returns the meter's stored point count, tail included,
// without locking.
func (m Meter) TotalSymbols() int { return int(m.e.total.Load()) }

// CollectRange returns views of the blocks that may hold points in
// [t0, t1), over the same range resolution as the fold steps (Count,
// Aggregate, Histogram): the directory-pruned sealed blocks of the published
// index, read lock-free, are appended to dst and returned, and the live tail,
// whose payload keeps mutating, is delivered through the tail callback under
// a brief shard read lock — at most once, and only when the range can
// actually reach it. Callers must still per-block filter with the view's
// timestamps (pruning is by block span, not by point).
//
// The returned sealed views MAY be retained and read after CollectRange
// returns, for as long as the store lives: sealed blocks are immutable once
// their index is published. The tail callback's view must not outlive the
// callback. The tail callback fires before dst is extended, in sealed-chain
// order.
func (m Meter) CollectRange(t0, t1 int64, dst []BlockView, tail func(BlockView)) []BlockView {
	ix, lo, hi := m.resolve(t0, t1, func(b *block, firstT int64, tables []*symbolic.Table, lanes []uint16) {
		tail(viewOf(b, firstT, tables, lanes))
	})
	for i := lo; i < hi; i++ {
		dst = append(dst, viewOf(&ix.blocks[i], ix.firstTs[i], ix.tables, ix.lanes))
	}
	return dst
}

// resolve is the one range resolution behind every range read. It returns
// the published index and the pruned run [lo, hi) of its sealed blocks that
// may hold points in [t0, t1), and, when the range can reach the live tail,
// first calls tail with the tail block, its first timestamp and the live
// table history and lane slab — under the shard read lock, so the tail's
// payload and lanes hold still for exactly the call. An empty or inverted
// range resolves to nothing without locking. Callers read the sealed blocks
// against ix's own tables and lanes, not the live ones: those may grow
// concurrently, and ix's are the ones its blocks' epochs and lane offsets
// index.
func (m Meter) resolve(t0, t1 int64, tail func(b *block, firstT int64, tables []*symbolic.Table, lanes []uint16)) (ix *sealedIndex, lo, hi int) {
	if t0 >= t1 {
		return &emptyIndex, 0, 0
	}
	e := m.e
	ix = e.idx.Load()
	if t1 <= e.tailFirstT.Load() && e.idx.Load() == ix {
		// The second load proves no seal was published between reading the
		// index and reading the tail bound, so they describe one generation:
		// every point of that generation's tail is ≥ tailFirstT ≥ t1, outside
		// the half-open range. Sealed data alone answers the query — no lock.
		lo, hi = ix.rangeBlocks(t0, t1)
		return ix, lo, hi
	}
	// The range may reach the live tail (or a seal raced us). Take the shard
	// read lock briefly: under it the published index is stable, the tail
	// cannot grow, and the callback's work is bounded by one block.
	m.sh.queryLocks.Add(1)
	m.sh.mu.RLock()
	ix = e.idx.Load()
	if tl, tf := e.tail(), e.tailFirstT.Load(); tl != nil && tl.n > 0 && tf < t1 && tl.lastT(tf) >= t0 {
		tail(tl, tf, e.tables, e.lanes)
	}
	m.sh.mu.RUnlock()
	lo, hi = ix.rangeBlocks(t0, t1)
	return ix, lo, hi
}

// publish swaps in a new sealed index after e's former tail (now
// e.blocks[len(idx.blocks)]) was sealed. Caller holds the shard write lock.
// It allocates the new sealedIndex — beside the next tail's payload, one of
// the two allocations a seal makes — and grows the directory amortised. The
// sealed block is the chain's last, so its lanes (if it kept any) end the
// slab: the whole slab is published. It was the tail, so tailFirstT still
// holds its first timestamp, which moves into the directory.
func (e *meterEntry) publish() {
	old := e.idx.Load()
	n := len(old.blocks)
	b := &e.blocks[n]
	first := e.tailFirstT.Load()
	e.dirFirst = append(e.dirFirst, first)
	e.idx.Store(&sealedIndex{
		tables:  e.tables,
		blocks:  e.blocks[:n+1],
		firstTs: e.dirFirst[:n+1],
		lanes:   e.lanes,
		total:   old.total + int(b.n),
		ordered: old.ordered && (n == 0 || e.blocks[n-1].lastT(e.dirFirst[n-1]) <= first),
	})
}

// viewOf builds a read-only visitor view of one block starting at firstT
// under the given table history and lane slab (the published index's for
// sealed blocks, the live ones for the tail).
func viewOf(b *block, firstT int64, tables []*symbolic.Table, lanes []uint16) BlockView {
	table := tables[b.epoch]
	return BlockView{
		FirstT:  firstT,
		Stride:  b.stride,
		N:       int(b.n),
		Level:   int(b.level),
		Epoch:   int(b.epoch),
		Payload: b.payload,
		Hist:    b.hist(lanes),
		Sum:     b.sum,
		MinV:    b.minV,
		MaxV:    b.maxV,
		Values:  table.ReconstructionValues(),
	}
}
