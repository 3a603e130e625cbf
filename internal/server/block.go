package server

import (
	"symmeter/internal/symbolic"
)

// The block store keeps every meter's stream packed at rest: a chain of
// fixed-capacity blocks, each holding up to BlockCap symbols in the codec's
// headerless bit layout plus a small summary (count, per-symbol histogram,
// min/max/sum of reconstruction values under the block's table epoch). Timestamps are not stored per point — a block records its first
// timestamp and the stride between points, and seals itself whenever an
// arriving point breaks the arithmetic progression (a gap in the stream) or
// the meter's lookup table changes (a new epoch). At the paper's headline
// k=16 this is ~0.5 payload bytes per point instead of the 24-byte
// ReconPoint the store used to materialize, and the summaries let the query
// engine answer aggregates over fully-covered blocks in O(1) without
// touching the payload at all.

const (
	// BlockCap is the symbol capacity of one packed block.
	BlockCap = 512
	// maxHistLevel bounds the per-block histogram: blocks at level ≤ 8
	// (k ≤ 256) carry one. At level 8 the lanes cost as much as the payload
	// they summarize (512 B each at k=256) — a deliberate
	// memory-for-query-speed trade that keeps full-block Histogram O(k);
	// past k=256 the trade stops paying, so finer alphabets keep only
	// count/sum/min/max and answer histogram queries by kernel scan.
	maxHistLevel = 8
)

// blockBytes is the payload size of a full block at the given level.
func blockBytes(level int) int { return (BlockCap*level + 7) / 8 }

// block is one packed segment of a meter's stream. Blocks are append-only:
// once a successor block exists, a block is sealed and never mutated again,
// which is what lets snapshots and queries read sealed blocks outside the
// shard lock.
//
// The struct is what the store keeps per sealed block besides the payload
// (for a persistent store, an mmapped segment region), the block's k
// histogram lanes, which live in the meter's lane slab, and its first
// timestamp, which lives in the meter's time directory (the live tail's in
// meterEntry.tailFirstT): 72 bytes, pinned by TestBlockLayout. The extremes
// stay float64 so summaries are bit-identical to a point-by-point fold.
type block struct {
	stride int64 // timestamp step; 0 until the block holds two points
	sum    float64
	// minV and maxV are reconstruction-value extremes, tracked in the value
	// domain at ingest so queries need no assumption about how the table
	// maps symbol indices to values.
	minV    float64
	maxV    float64
	payload []byte // headerless packed symbols, blockBytes(level) long
	epoch   uint32 // index into the meter's table history
	// lanes is the offset of the block's 1<<level histogram lanes in the
	// meter's lane slab; meaningful only under flagHist.
	lanes uint32
	n     uint16 // symbols stored, ≤ BlockCap
	level uint8  // symbol bits (copied from the epoch's table)
	flags uint8
}

// block flags.
const (
	// flagHist: the block owns 1<<level histogram lanes at block.lanes (only
	// blocks at level ≤ maxHistLevel do, and an underfull one gives them back
	// at seal).
	flagHist uint8 = 1 << iota
	// flagSpilled: the payload aliases a durable segment file (an mmapped
	// region handed back by the store's SealSink). The bytes are no longer
	// heap-resident, so MemoryFootprint excludes them.
	flagSpilled
)

// hist returns the block's histogram lanes in the meter's lane slab, or nil
// when it has none.
func (b *block) hist(slab []uint16) []uint16 {
	if b.flags&flagHist == 0 {
		return nil
	}
	end := int(b.lanes) + 1<<b.level
	return slab[b.lanes:end:end]
}

// lastT returns the timestamp of the block's last point, given its first
// (n must be ≥ 1).
func (b *block) lastT(firstT int64) int64 { return firstT + int64(b.n-1)*b.stride }

// strideFor returns the stride a second point at time t would fix for a
// block starting at firstT, rejecting anything whose arithmetic progression
// could overflow int64 within BlockCap points. Timestamps are
// client-controlled wire input: without this guard an adversarial stride
// wraps lastT negative and queries diverge from Snapshot or panic on
// wrapped offsets. Rejected points simply open their own block.
//
// Both the block's span ((BlockCap-1)·stride) and its end (firstT + span)
// must fit in int64 — queries subtract firstT from in-range timestamps, so
// every offset up to the span must be representable. Negative timestamps
// (pre-epoch streams) are ordinary input and pass these checks unharmed.
func strideFor(firstT, t int64) (int64, bool) {
	if t <= firstT {
		return 0, false
	}
	if firstT < 0 && t > maxInt64+firstT { // t-firstT would overflow
		return 0, false
	}
	stride := t - firstT
	if stride > maxInt64/int64(BlockCap-1) { // span would overflow
		return 0, false
	}
	if span := stride * int64(BlockCap-1); firstT > maxInt64-span { // lastT would overflow
		return 0, false
	}
	return stride, true
}

const maxInt64 = 1<<63 - 1

// admit reports how many leading points of an arithmetic run — first
// timestamp t, step stride, count ≥ 1 points, arriving under epoch — continue
// the progression of the block that starts at firstT, and fixes the stride
// exactly as the block's second point fixes it. An empty block starts at the
// run (the caller passes firstT == t and records it). Zero means the run's
// first point needs a new block; a run whose step the block cannot take on (a
// gap, a stride change, a stride strideFor rejects) is admitted one point at
// a time. Run timestamps are wire or disk input and may wrap int64: strideFor
// rejects every wrapped second point, and inside an established progression
// "t matches and the steps agree" is the same test modulo 2^64 as comparing
// every point.
func (b *block) admit(firstT, t, stride int64, count int, epoch uint32) int {
	if b.epoch != epoch || b.n >= BlockCap {
		return 0
	}
	switch b.n {
	case 0:
		if count > 1 {
			// The run's second point fixes the stride; it must move forward
			// and keep the whole block's progression inside int64.
			if _, ok := strideFor(t, t+stride); !ok {
				return 1
			}
			b.stride = stride
		}
		return min(count, BlockCap)
	case 1:
		s, ok := strideFor(firstT, t)
		if !ok {
			return 0
		}
		b.stride = s
	default:
		if t != firstT+int64(b.n)*b.stride {
			return 0
		}
	}
	if count > 1 && stride != b.stride {
		return 1
	}
	return min(count, BlockCap-int(b.n))
}

// seal trims a block that is about to get a successor down to what it
// actually holds: the payload is copy-shrunk to its used bytes and a
// histogram wider than the block's point count is given back (queries
// kernel-scan such blocks anyway). Timestamps are client-controlled wire
// input, so a stream that keeps breaking the stride seals near-empty blocks
// — without trimming, each would pin a full BlockCap payload plus k
// histogram lanes, a memory-amplification vector. Full blocks (the
// regular-stream case) are untouched, so sealing one copies nothing.
// Per-block metadata (72 bytes) still bounds the degenerate worst case;
// policing meters that produce pathological block counts is a separate
// concern.
func (e *meterEntry) seal(b *block) {
	if used := (int(b.n)*int(b.level) + 7) / 8; used < len(b.payload) {
		b.payload = append(make([]byte, 0, used), b.payload[:used]...)
	}
	e.trimLanes(b)
}

// trimLanes gives an underfull block's histogram lanes back to the slab. The
// block being sealed is the tail, whose lanes are the slab's last, so the
// next tail reuses the cells (newBlock zeroes them) and a degenerate stream
// never grows the slab past one block's lanes.
func (e *meterEntry) trimLanes(b *block) {
	if b.flags&flagHist != 0 && int(b.n) < 1<<b.level {
		e.lanes = e.lanes[:b.lanes]
		b.flags &^= flagHist
	}
}

// extend appends the m symbols at position pos of the packed payload src —
// which admit just accepted — with one bit-copy, then folds them into the
// summary and the block's histogram lanes hist (nil when it has none) in
// arrival order, so sum, extremes and histogram come out bit-identical to
// appending the points one at a time.
func (b *block) extend(values []float64, hist []uint16, src []byte, pos, m int) {
	level, n := int(b.level), int(b.n)
	symbolic.CopyPacked(b.payload, n, src, pos, m, level)
	if n == 0 {
		v := values[symbolic.PackedSymbolAt(src, level, pos)]
		b.minV, b.maxV = v, v
	}
	b.sum, b.minV, b.maxV = symbolic.PackedRangeFold(values, hist, b.payload, level, n, n+m, b.sum, b.minV, b.maxV)
	b.n += uint16(m)
}

// BlockView is a read-only view of one packed block plus its epoch table's
// lookup data. Views of sealed blocks (everything CollectRange returns in
// its slice) are immutable and may be retained for the store's lifetime.
// The live tail's view — delivered only through CollectRange's tail
// callback, under the shard read lock — must not be
// retained past the callback: its Payload and Hist keep growing after the
// lock is released.
type BlockView struct {
	// FirstT and Stride define the block's timestamps: point i lives at
	// FirstT + i·Stride. Stride is 0 while the block holds a single point.
	FirstT int64
	Stride int64
	// N is the number of symbols in the block.
	N int
	// Level is the symbol width in bits; the alphabet has 1<<Level symbols.
	Level int
	// Epoch is the index of the block's table in the meter's table history.
	Epoch int
	// Payload is the headerless packed symbol data (N·Level bits used).
	Payload []byte
	// Hist is the per-symbol count summary (a block holds at most BlockCap
	// symbols, so a lane fits 16 bits), nil when Level > 8 or when a sealed
	// block holds fewer points than the alphabet has symbols.
	Hist []uint16
	// Sum is the sum of reconstruction values over the whole block.
	Sum float64
	// MinV and MaxV are the smallest and largest reconstruction value in
	// the block, tracked in the value domain at ingest — no assumption
	// about the symbol→value mapping is needed to use them.
	MinV, MaxV float64
	// Values maps symbol index to reconstruction value under the epoch's
	// table.
	Values []float64
}

// LastT returns the timestamp of the view's last point.
func (v BlockView) LastT() int64 { return v.FirstT + int64(v.N-1)*v.Stride }
