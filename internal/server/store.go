// Package server is the concurrent aggregation service of the paper's §2
// deployment story at fleet scale: many smart meters connect over TCP, each
// handshakes with its meter ID, ships its locally-learned lookup table, and
// streams packed symbols; the server runs one session goroutine per meter
// and keeps the symbols packed at rest in a sharded block store, so both
// ingest and compressed-domain queries scale across cores.
//
// Layering: internal/transport owns the wire format (frames, handshake,
// Decoder); this package owns connection lifecycle (Service), per-meter
// decoding state (session) and the shared mutable state (Store — packed
// block chains, see block.go; lock-free published read path, see index.go).
// internal/query answers aggregates on top of the Store's Meter handles;
// internal/fleet simulates M meters streaming concurrently over real TCP for
// load generation.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"symmeter/internal/symbolic"
)

// Typed store errors, distinguishable with errors.Is.
var (
	// ErrDuplicateMeter reports a session handshake for a meter ID that
	// already has a live session.
	ErrDuplicateMeter = errors.New("server: meter already has an active session")
	// ErrUnknownMeter reports a write for a meter that never registered.
	ErrUnknownMeter = errors.New("server: unknown meter")
	// ErrNoTable reports symbol data arriving for a meter before any
	// lookup table.
	ErrNoTable = errors.New("server: meter has no lookup table")
	// ErrDegraded reports an ingest refused because the durability layer is
	// degraded (storage wraps this sentinel with the failure's cause):
	// queries keep serving, but the server will not acknowledge writes it
	// cannot make durable. Travels the wire as transport.VerdictDegraded.
	ErrDegraded = errors.New("server: storage degraded: ingest refused")
	// ErrOverloaded reports an ingest batch refused by admission control:
	// the shard's in-flight ingest budget is exhausted. Retryable — nothing
	// was written, and the budget frees as in-flight batches commit.
	// Travels the wire as transport.VerdictOverloaded.
	ErrOverloaded = errors.New("server: ingest overloaded: shard budget exhausted")
	// ErrDraining reports a session refused because the service is shutting
	// down gracefully. Retryable against the restarted process. Travels the
	// wire as transport.VerdictDraining.
	ErrDraining = errors.New("server: draining: new sessions refused")
	// ErrSeqGap reports a sequenced batch that skips ahead of the meter's
	// high-water mark — a client bug (sequence numbers must be dense), torn
	// down loudly rather than committed out of order.
	ErrSeqGap = errors.New("server: sequence gap in sequenced ingest")
	// ErrEmptyBatch reports a sequenced batch with no points: committing it
	// would advance the high-water mark with nothing a log could replay it
	// from.
	ErrEmptyBatch = errors.New("server: empty sequenced batch")
)

// ReconPoint is one reconstructed measurement: the symbol the meter sent
// plus the representative value it decodes to under the table that was
// current when it arrived.
type ReconPoint struct {
	T int64
	S symbolic.Symbol
	V float64
}

// MeterState is the aggregate view of one meter, materialized on demand by
// Snapshot — the store itself never holds reconstructed points.
type MeterState struct {
	ID uint64
	// Tables holds every lookup table received, in order; the last is
	// current.
	Tables []*symbolic.Table
	// Points is the reconstructed stream, in arrival order.
	Points []ReconPoint
	// Sessions counts completed-or-active sessions for this meter (a meter
	// may reconnect).
	Sessions int
}

// meterEntry guards one meter's state inside a shard. Symbols live in a
// chain of packed blocks; only the last block (the tail) is ever mutated,
// and the sealed prefix is republished through the atomic idx pointer at
// each seal (see index.go), so queries read everything but the tail without
// any lock at all.
type meterEntry struct {
	id       uint64
	tables   []*symbolic.Table
	sessions int
	active   bool
	// seq is the committed batch-sequence high-water mark (0 = nothing
	// committed) — its only copy: the durability layer reads and advances
	// this one too (AdmitSeq, AppendPacked, RestoreSeq). Guarded by the shard
	// lock; only the meter's single live session advances it.
	seq uint64

	blocks []block

	// idx is the RCU-published sealed-chain index: swapped by the writer at
	// seal time, loaded by readers without the shard lock. Never nil (points
	// at emptyIndex until the first seal).
	idx atomic.Pointer[sealedIndex]
	// dirFirst backs the published time directory: one firstT per sealed
	// block, appended at seal time; published indexes hold length-capped
	// prefixes of it.
	dirFirst []int64
	// tailFirstT is the live tail's first timestamp, or noTail while the
	// meter has no unsealed points. Stored before the tail's first push and
	// after the index swap, so VisitRange's double-load can prove a query
	// range cannot reach the tail without locking.
	tailFirstT atomic.Int64
	// total is the symbol count across all blocks, tail included: written
	// under the shard lock, loaded lock-free by TotalSymbols.
	total atomic.Int64

	// Arena capacity carved into new blocks so a Reserve'd meter appends
	// without allocating. pendingReserve parks a Reserve that arrived before
	// the first table (the arena is sized by the table's level). arenaBytes
	// accumulates every arena allocation at full size — carved regions stay
	// resident for the arena's lifetime whether or not their block was
	// trimmed, so MemoryFootprint counts slabs whole, never remainders.
	payloadArena   []byte
	histArena      []uint32
	idxArena       []sealedIndex
	arenaBytes     int64
	pendingReserve int

	// recycle is the previous tail's heap payload buffer, freed up when a
	// spill relocated that block's bytes into a segment file: the next tail
	// block reuses it, so a persistent meter reaches a steady state where
	// sealing allocates nothing and resident payload is bounded by one live
	// tail regardless of history length.
	recycle []byte
}

// tail returns the mutable last block, or nil when every block of the chain
// is sealed. The sealed prefix is exactly the published index's blocks, so
// the chain has a live tail iff it is one block longer than the index — which
// also holds for a freshly-restored meter, whose recovered blocks are all
// sealed (a naive "last block" rule would hand out a published, immutable
// block as the tail and corrupt it on the next append).
func (e *meterEntry) tail() *block {
	if len(e.blocks) == len(e.idx.Load().blocks) {
		return nil
	}
	return &e.blocks[len(e.blocks)-1]
}

// newBlock appends a fresh block for the given epoch, carving payload and
// histogram space from the reserve arena when available and falling back to
// the spill-recycled tail buffer before the allocator.
func (e *meterEntry) newBlock(epoch uint32, level, k int) *block {
	nb := blockBytes(level)
	var payload []byte
	payloadFromArena := len(e.payloadArena) >= nb
	if payloadFromArena {
		payload = e.payloadArena[:nb:nb]
		e.payloadArena = e.payloadArena[nb:]
	} else if cap(e.recycle) >= nb {
		payload = e.recycle[:nb:nb]
		clear(payload) // a tail's unused bytes read as zero, as in a fresh buffer
		e.recycle = nil
	} else {
		payload = make([]byte, nb)
	}
	var hist []uint32
	histFromArena := false
	if level <= maxHistLevel {
		if histFromArena = len(e.histArena) >= k; histFromArena {
			hist = e.histArena[:k:k]
			e.histArena = e.histArena[k:]
		} else {
			hist = make([]uint32, k)
		}
	}
	e.blocks = append(e.blocks, block{
		epoch:            epoch,
		level:            uint8(level),
		payload:          payload,
		hist:             hist,
		payloadFromArena: payloadFromArena,
		histFromArena:    histFromArena,
	})
	return &e.blocks[len(e.blocks)-1]
}

// idxMeta is the resident cost of one published index struct.
const idxMeta = int64(unsafe.Sizeof(sealedIndex{}))

// reserveLocked sizes the arenas, block slice, time directory and index
// arena for n more points under the meter's current table, so the whole
// append-and-seal-and-publish cycle runs allocation-free. When the store
// spills sealed payloads to a SealSink, the payload and histogram arenas are
// skipped: a spilled block's bytes live in a segment file, so a full-history
// payload slab would pin exactly the memory the spill path exists to evict
// (the recycled tail buffer makes steady-state sealing allocation-free
// instead).
func (e *meterEntry) reserveLocked(n int, persist bool) {
	table := e.tables[len(e.tables)-1]
	level, k := table.Level(), table.K()
	nb := (n+BlockCap-1)/BlockCap + 1
	if !persist {
		if need := nb * blockBytes(level); len(e.payloadArena) < need {
			e.payloadArena = make([]byte, need)
			e.arenaBytes += int64(need)
		}
		if level <= maxHistLevel {
			if need := nb * k; len(e.histArena) < need {
				e.histArena = make([]uint32, need)
				e.arenaBytes += 4 * int64(need)
			}
		}
	}
	if len(e.idxArena) < nb {
		e.idxArena = make([]sealedIndex, nb)
		e.arenaBytes += int64(nb) * idxMeta
	}
	e.blocks = slices.Grow(e.blocks, nb)
	e.dirFirst = slices.Grow(e.dirFirst, nb)
}

// shard is one lock domain of the store. The lock serializes writers (and
// the brief tail folds of readers); the meter index, the published meter
// list and each meter's published index serve everything else without it.
type shard struct {
	mu sync.RWMutex
	// pack is AppendSeq's packing scratch, used under mu: a batch is packed
	// and committed inside one lock hold, so the shard's meters can share it.
	pack []byte
	// meters indexes the shard's entries by ID (uint64 → *meterEntry).
	// Loads are lock-free; a meter is stored once, under mu, when it
	// registers, at amortised O(1) — nothing is copied per registration.
	// Meters are never removed.
	meters sync.Map
	// list holds the shard's meter handles in registration order for fleet
	// iteration, republished under mu as it grows append-only: entry
	// pointers are stable and cells below any published length are never
	// rewritten, so readers use a loaded slice without locking. Nil until
	// the first meter registers.
	list atomic.Pointer[[]Meter]
	// queryLocks counts read-path shard-lock acquisitions (live-tail folds
	// and nothing else) — the measured basis for the "sealed-data queries
	// take zero locks" contract.
	queryLocks atomic.Int64
}

// meter returns the shard's entry for the ID, or nil. Safe with or without
// the shard lock: the lookup never locks.
func (sh *shard) meter(meterID uint64) *meterEntry {
	if v, ok := sh.meters.Load(meterID); ok {
		return v.(*meterEntry)
	}
	return nil
}

// register publishes a new entry to lock-free readers. Caller holds mu.
func (sh *shard) register(e *meterEntry) {
	list := append(sh.meterList(), Meter{e: e, sh: sh})
	sh.list.Store(&list)
	sh.meters.Store(e.id, e)
}

// meterList returns the published meter handles in registration order.
func (sh *shard) meterList() []Meter {
	if l := sh.list.Load(); l != nil {
		return *l
	}
	return nil
}

// SealedBlock is the exported form of one sealed packed block — what a
// SealSink receives at seal time and what Store.RestoreMeter accepts at
// recovery. Payload is the headerless packed symbol data trimmed to its used
// bytes; Hist is the per-symbol count summary or nil.
type SealedBlock struct {
	Epoch      int
	Level      int
	N          int
	FirstT     int64
	Stride     int64
	Sum        float64
	MinV, MaxV float64
	Payload    []byte
	Hist       []uint32
	// Spilled marks the payload as aliasing non-heap memory (an mmapped
	// segment region); MemoryFootprint then excludes it. Sinks that persist
	// a block and hand back an mmapped view set it implicitly; restores set
	// it to match where the recovered payload actually lives.
	Spilled bool
}

// SealSink persists blocks the moment they seal. SealedBlock is called under
// the meter's shard write lock, after the block's final point and before the
// sealed index republishes (the block is still invisible to lock-free
// readers), and returns the byte slice the store must adopt as the block's
// payload from then on — typically an mmapped region of the segment file the
// sink just wrote, which is what evicts sealed payloads from the heap.
// Returning blk.Payload itself keeps the block resident. An error fails the
// append that triggered the seal; points already committed stay readable and
// the spill is retried on the meter's next append.
type SealSink interface {
	SealedBlock(meterID uint64, blk SealedBlock) ([]byte, error)
}

// Store is a sharded in-memory aggregation store. Meters are assigned to
// shards by a mixed hash of their ID; all state for one meter lives in one
// shard, so a session touches exactly one mutex and concurrent sessions on
// different shards never contend.
type Store struct {
	shards []shard
	// sink, when non-nil, receives every block at seal time (the durability
	// hook); set once before ingest via SetSealSink.
	sink SealSink
}

// SetSealSink installs the seal-time durability hook. It must be called
// before any session appends — the store does not retrofit existing sealed
// blocks into the sink.
func (s *Store) SetSealSink(sink SealSink) { s.sink = sink }

// NewStore returns a store with n shards (n < 1 is clamped to 1).
func NewStore(n int) *Store {
	if n < 1 {
		n = 1
	}
	return &Store{shards: make([]shard, n)}
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// mix64 is the splitmix64 finalizer: sequential meter IDs (the common
// provisioning pattern) would otherwise land on sequential shards and, with
// shard counts sharing factors with the ID stride, pile onto a few locks.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor returns the shard index a meter ID maps to (exposed for tests
// and capacity planning).
func (s *Store) ShardFor(meterID uint64) int {
	return int(mix64(meterID) % uint64(len(s.shards)))
}

func (s *Store) shardOf(meterID uint64) *shard {
	return &s.shards[s.ShardFor(meterID)]
}

// Meter returns a lock-free handle to the meter's published state, and
// whether the meter exists. No lock is taken.
func (s *Store) Meter(meterID uint64) (Meter, bool) {
	sh := s.shardOf(meterID)
	e := sh.meter(meterID)
	if e == nil {
		return Meter{}, false
	}
	return Meter{e: e, sh: sh}, true
}

// ShardMeters returns the published meter handles of one shard, in
// registration order, without locking. The slice is shared and read-only;
// callers must not mutate or retain it past the query.
func (s *Store) ShardMeters(shardIdx int) []Meter {
	return s.shards[shardIdx].meterList()
}

// QueryLockAcquisitions returns how many times the read path has taken a
// shard lock (live-tail folds) since the store was created. Queries that
// cover only sealed data leave it untouched — the measurable form of the
// lock-free read contract.
func (s *Store) QueryLockAcquisitions() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].queryLocks.Load()
	}
	return n
}

// StartSession registers a live session for the meter, creating its state
// on first contact. A second concurrent session for the same ID is refused
// with ErrDuplicateMeter — the wire protocol has no way to interleave two
// streams for one meter, so the newcomer must be an impostor or a stale
// reconnect racing its predecessor.
func (s *Store) StartSession(meterID uint64) error {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.meter(meterID)
	if e == nil {
		e = &meterEntry{id: meterID}
		e.idx.Store(&emptyIndex)
		e.tailFirstT.Store(noTail)
		sh.register(e)
	}
	if e.active {
		return fmt.Errorf("%w: %d", ErrDuplicateMeter, meterID)
	}
	e.active = true
	e.sessions++
	return nil
}

// EndSession releases the meter's live-session slot. Accumulated state is
// kept: an abrupt disconnect loses at most the batch in flight, never the
// shard.
func (s *Store) EndSession(meterID uint64) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.meter(meterID); e != nil {
		e.active = false
	}
}

// LastSeq reports the meter's committed batch-sequence high-water mark, or
// zero for a meter that never committed a sequenced batch (or is unknown).
// It is the handshake-reply value a reconnecting sequenced client uses to
// decide which pending batches to replay.
func (s *Store) LastSeq(meterID uint64) uint64 {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.meter(meterID); e != nil {
		return e.seq
	}
	return 0
}

// CheckSeq is the dense-sequence rule every Ingest applies to seq against a
// meter's high-water mark hwm: at or below it is a duplicate (suppressed but
// acked — the write already committed), exactly hwm+1 proceeds, anything
// else is a gap (a client bug, refused loudly rather than committed out of
// order).
func CheckSeq(meterID, hwm, seq uint64) (dup bool, err error) {
	if seq <= hwm {
		return true, nil
	}
	if seq != hwm+1 {
		return false, fmt.Errorf("%w: meter %d got seq %d with high-water mark %d", ErrSeqGap, meterID, seq, hwm)
	}
	return false, nil
}

// RestoreSeq installs a recovered meter's committed high-water mark — the
// highest seq recovery read back from the meter's logged writes.
func (s *Store) RestoreSeq(meterID, seq uint64) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.meter(meterID); e != nil {
		e.seq = seq
	}
}

// admit judges the meter's seq-th write in the one verdict order every
// Ingest shares: an unknown meter, then a duplicate or gap (CheckSeq), then —
// for a batch of n points — a missing table, then an empty batch. The caller
// holds the shard lock.
func (sh *shard) admit(meterID, seq uint64, batch bool, n int) (*meterEntry, bool, error) {
	e := sh.meter(meterID)
	if e == nil {
		return nil, false, fmt.Errorf("%w: %d", ErrUnknownMeter, meterID)
	}
	if dup, err := CheckSeq(meterID, e.seq, seq); dup || err != nil {
		return e, dup, err
	}
	if batch && len(e.tables) == 0 {
		return e, false, fmt.Errorf("%w: %d", ErrNoTable, meterID)
	}
	if batch && n == 0 {
		return e, false, fmt.Errorf("%w: meter %d seq %d", ErrEmptyBatch, meterID, seq)
	}
	return e, false, nil
}

// AdmitSeq judges the meter's seq-th write — a table, or a batch of n points
// — without committing anything, by the verdict order PushTableSeq and
// AppendSeq apply. It is for a caller that must log a write before it
// commits it (the durability layer): an admitted batch also learns the
// meter's current table epoch and symbol level, which frame its log record
// and its later AppendPacked.
func (s *Store) AdmitSeq(meterID, seq uint64, batch bool, n int) (epoch, level int, dup bool, err error) {
	sh := s.shardOf(meterID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, dup, err := sh.admit(meterID, seq, batch, n)
	if dup || err != nil {
		return 0, 0, dup, err
	}
	if epoch = len(e.tables) - 1; epoch >= 0 {
		level = e.tables[epoch].Level()
	}
	return epoch, level, false, nil
}

// PushTableSeq is PushTable under a session sequence number: seq == hwm+1
// commits the table and advances the mark, seq <= hwm is suppressed as a
// duplicate (dup=true, nothing written, still to be acked), and a gap is
// refused. The shard lock is held from the check until the mark advances.
func (s *Store) PushTableSeq(meterID, seq uint64, t *symbolic.Table) (bool, error) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, dup, err := sh.admit(meterID, seq, false, 0)
	if dup || err != nil {
		return dup, err
	}
	e.pushTable(t, s.sink != nil)
	e.seq = seq
	return false, nil
}

// PushTable records a new lookup table for the meter, opening a new epoch:
// the current tail block is left to seal itself on the next append.
func (s *Store) PushTable(meterID uint64, t *symbolic.Table) error {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.meter(meterID)
	if e == nil {
		return fmt.Errorf("%w: %d", ErrUnknownMeter, meterID)
	}
	e.pushTable(t, s.sink != nil)
	return nil
}

// pushTable appends the table and applies a Reserve that was waiting for it.
func (e *meterEntry) pushTable(t *symbolic.Table, persist bool) {
	e.tables = append(e.tables, t)
	if e.pendingReserve > 0 {
		e.reserveLocked(e.pendingReserve, persist)
		e.pendingReserve = 0
	}
}

// ErrBadSymbol reports a symbol whose level does not match the meter's
// current lookup table, making it undecodable.
var ErrBadSymbol = errors.New("server: symbol level does not match table")

// Run is a packed arithmetic run, the unit the store commits: Count symbols
// of Level bits each, read from position Pos of the headerless packed payload
// Packed, symbol i stamped FirstT + i·Stride. A wire batch packs into one; a
// write-ahead-log batch record already is one, so replay commits the record's
// own bytes.
type Run struct {
	FirstT, Stride int64
	Level, Count   int
	Packed         []byte
	Pos            int
}

// PackPoints validates a batch against a table level and packs its symbols
// once — appended to dst in the layout Run.Packed and the WAL batch record
// share — so every later stage copies bytes instead of re-deriving them. A
// symbol at another level fails the whole batch with ErrBadSymbol and leaves
// dst at its original length.
func PackPoints(dst []byte, pts []symbolic.SymbolPoint, level int) ([]byte, error) {
	dst, bad := symbolic.AppendPackPoints(dst, pts, level)
	if bad >= 0 {
		return dst, fmt.Errorf("%w: point %d has level %d, table has level %d",
			ErrBadSymbol, bad, pts[bad].S.Level(), level)
	}
	return dst, nil
}

// LeadingRun returns how many leading points of pts form one arithmetic
// timestamp progression (any common difference, including zero): all of them
// for a batch off the wire, fewer where a batch spans a gap.
func LeadingRun(pts []symbolic.SymbolPoint) int {
	if len(pts) < 3 {
		return len(pts)
	}
	// Comparing against the extrapolated timestamp rather than the previous
	// point keeps the iterations independent; modulo 2^64 the tests agree.
	n, stride, want := 2, pts[1].T-pts[0].T, pts[1].T
	for ; n < len(pts); n++ {
		if want += stride; pts[n].T != want {
			break
		}
	}
	return n
}

// current returns the meter's entry and current table for a write; the
// caller holds the shard write lock.
func (sh *shard) current(meterID uint64) (*meterEntry, *symbolic.Table, error) {
	e := sh.meter(meterID)
	if e == nil {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownMeter, meterID)
	}
	if len(e.tables) == 0 {
		return nil, nil, fmt.Errorf("%w: %d", ErrNoTable, meterID)
	}
	return e, e.tables[len(e.tables)-1], nil
}

// AppendSeq commits a decoded symbol batch as the meter's seq-th write into
// its packed block chain under the current table epoch, returning how many
// points were stored. Duplicates and gaps are judged first (CheckSeq), then
// a missing table, then an empty batch (ErrEmptyBatch) — see admit.
//
// The whole batch is validated against the table and packed (PackPoints)
// before any point is committed, so a validation error never leaves a
// partially-appended batch; the packed bytes then commit as arithmetic runs
// (AppendRun). The one exception to all-or-nothing is an I/O error from the
// seal sink mid-batch: points committed before the failing seal stay readable
// (the return count says how many), so a caller must resume from that count
// rather than retry the whole batch. The high-water mark advances only after
// the whole batch commits, so a failed append leaves the mark untouched and
// the client's retry of the same seq is not misread as a duplicate.
func (s *Store) AppendSeq(meterID, seq uint64, pts []symbolic.SymbolPoint) (int, bool, error) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, dup, err := sh.admit(meterID, seq, true, len(pts))
	if dup || err != nil {
		return 0, dup, err
	}
	table := e.tables[len(e.tables)-1]
	packed, err := PackPoints(sh.pack[:0], pts, table.Level())
	sh.pack = packed[:0]
	if err != nil {
		return 0, false, err
	}
	n, err := s.appendPacked(e, table, pts, table.Level(), packed)
	if err == nil {
		e.seq = seq
	}
	return n, false, err
}

// AppendPacked commits, as the meter's seq-th write, a batch the caller
// already admitted (AdmitSeq) and packed at the given level by PackPoints —
// the durability layer packs once, before it logs: timestamps come from pts,
// symbols from packed. Like AppendSeq it advances the high-water mark to seq
// only once the whole batch commits.
func (s *Store) AppendPacked(meterID, seq uint64, pts []symbolic.SymbolPoint, level int, packed []byte) (int, error) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, table, err := sh.current(meterID)
	if err != nil {
		return 0, err
	}
	n, err := s.appendPacked(e, table, pts, level, packed)
	if err == nil {
		e.seq = seq
	}
	return n, err
}

// appendPacked commits a packed batch as its maximal arithmetic runs.
func (s *Store) appendPacked(e *meterEntry, table *symbolic.Table, pts []symbolic.SymbolPoint, level int, packed []byte) (int, error) {
	total := 0
	for i := 0; i < len(pts); {
		r := Run{FirstT: pts[i].T, Level: level, Count: LeadingRun(pts[i:]), Packed: packed, Pos: i}
		if r.Count > 1 {
			r.Stride = pts[i+1].T - pts[i].T
		}
		n, err := s.appendRun(e, table, r)
		total += n
		if err != nil {
			return total, err
		}
		i += r.Count
	}
	return total, nil
}

// AppendRun commits one packed run under the meter's current table epoch and
// returns how many symbols were stored — the entry point WAL replay drives
// with each record's own bytes.
func (s *Store) AppendRun(meterID uint64, r Run) (int, error) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, table, err := sh.current(meterID)
	if err != nil {
		return 0, err
	}
	return s.appendRun(e, table, r)
}

// appendRun is the one commit path: it extends the tail block by as many of
// the run's symbols as continue its timestamp progression — a bit-copy plus
// an in-order summary fold per stretch (block.extend) — and whenever the next
// symbol does not fit (block full, gap, stride or epoch change) seals the
// tail, publishes the sealed index (the single point where the lock-free read
// path learns about new data), and opens a fresh block. Caller holds the
// shard write lock.
func (s *Store) appendRun(e *meterEntry, table *symbolic.Table, r Run) (int, error) {
	level := table.Level()
	if r.Level != level {
		return 0, fmt.Errorf("%w: run has level %d, table has level %d", ErrBadSymbol, r.Level, level)
	}
	if r.Count < 0 || r.Pos < 0 || (r.Pos+r.Count)*level > 8*len(r.Packed) {
		return 0, fmt.Errorf("server: run of %d symbols at position %d overruns %d packed bytes", r.Count, r.Pos, len(r.Packed))
	}
	epoch := uint32(len(e.tables) - 1)
	values := table.ReconstructionValues()
	tail := e.tail()
	done := 0
	for done < r.Count {
		t := r.FirstT + int64(done)*r.Stride
		m := 0
		if tail != nil {
			m = tail.admit(t, r.Stride, r.Count-done, epoch)
		}
		if m == 0 {
			if tail != nil {
				// Trim (or spill to the durable sink) before publishing: a
				// block must never mutate after the index that contains it
				// is visible to lock-free readers.
				if err := s.sealTail(e, tail); err != nil {
					// The spill failed mid-run. Symbols committed so far are
					// valid and stay readable (the sealed-but-unpublished
					// block is still served as the locked tail); account
					// them and surface the I/O error to the session.
					e.total.Add(int64(done))
					return done, err
				}
				e.publish()
			}
			tail = e.newBlock(epoch, level, table.K())
			// Publish the new tail's start before its first symbol lands, so
			// a lock-free reader that proves a stable index generation can
			// trust this bound (see Meter.VisitRange).
			e.tailFirstT.Store(t)
			m = tail.admit(t, r.Stride, r.Count-done, epoch)
		}
		tail.extend(values, r.Packed, r.Pos+done, m)
		done += m
	}
	e.total.Add(int64(done))
	return done, nil
}

// sealTail finalizes a block that is about to get a successor: through the
// durable sink when one is installed (the payload relocates into a segment
// file and the heap buffer recycles to the next tail), by in-place trimming
// otherwise. Caller holds the shard write lock.
func (s *Store) sealTail(e *meterEntry, tail *block) error {
	if s.sink == nil {
		tail.seal()
		return nil
	}
	return e.spill(s.sink, tail)
}

// spill hands a just-sealed block to the sink and adopts the returned bytes
// as the block's payload. On success the old heap payload buffer is parked
// for reuse by the next tail, and an underfull block's histogram is dropped
// exactly as seal() would drop it (the sink already persisted it; queries
// kernel-scan partial blocks either way).
func (e *meterEntry) spill(sink SealSink, b *block) error {
	used := (int(b.n)*int(b.level) + 7) / 8
	adopted, err := sink.SealedBlock(e.id, SealedBlock{
		Epoch:   int(b.epoch),
		Level:   int(b.level),
		N:       int(b.n),
		FirstT:  b.firstT,
		Stride:  b.stride,
		Sum:     b.sum,
		MinV:    b.minV,
		MaxV:    b.maxV,
		Payload: b.payload[:used:used],
		Hist:    b.hist,
	})
	if err != nil {
		return err
	}
	if len(adopted) < used {
		return fmt.Errorf("server: seal sink returned %d payload bytes, need %d", len(adopted), used)
	}
	// A sink without a mapping may hand the heap payload straight back; only
	// a genuinely relocated payload frees the old buffer for recycling (and
	// only then is the block's storage off-heap).
	if relocated := &adopted[0] != &b.payload[0]; relocated {
		if !b.payloadFromArena && cap(b.payload) > cap(e.recycle) {
			e.recycle = b.payload[:0]
		}
		b.payload = adopted[:used:used]
		b.payloadFromArena = false
		b.spilled = true
	} else {
		// The bytes stayed on the heap (no mapping available): trim them
		// like any other seal.
		b.seal()
	}
	if !b.histFromArena && b.hist != nil && int(b.n) < len(b.hist) {
		b.hist = nil
	}
	return nil
}

// Reserve pre-allocates block capacity for at least n points for the meter —
// capacity planning for ingest bursts: a session that knows how many windows
// a replayed day will produce makes every subsequent append allocation-free.
// A Reserve arriving before the meter's first table (the session handshake
// order) is parked and applied when the table lands, since the arena is
// sized by the table's symbol level.
func (s *Store) Reserve(meterID uint64, n int) error {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.meter(meterID)
	if e == nil {
		return fmt.Errorf("%w: %d", ErrUnknownMeter, meterID)
	}
	if len(e.tables) == 0 {
		if n > e.pendingReserve {
			e.pendingReserve = n
		}
		return nil
	}
	e.reserveLocked(n, s.sink != nil)
	return nil
}

// RestoreMeter installs a recovered meter: its table history and its sealed
// block chain (typically read back from durable segment files, payloads
// aliasing mmapped regions), publishing the sealed index so queries serve
// the meter immediately and with the exact pruning the live path would have.
// It is the recovery-time counterpart of StartSession + PushTable + AppendSeq
// and must run before any live traffic for the meter; blocks must be in
// their original seal order. Every field is validated against the table
// history — recovery reads untrusted on-disk bytes, and a corrupt block must
// fail loudly here rather than panic in a query kernel.
func (s *Store) RestoreMeter(meterID uint64, tables []*symbolic.Table, blocks []SealedBlock) error {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.meter(meterID) != nil {
		return fmt.Errorf("server: meter %d already registered; restore must precede ingest", meterID)
	}
	e := &meterEntry{id: meterID, tables: append([]*symbolic.Table(nil), tables...)}
	e.tailFirstT.Store(noTail)
	total := 0
	ordered := true
	for i, rb := range blocks {
		if err := validateRestored(rb, e.tables); err != nil {
			return fmt.Errorf("server: restore meter %d block %d: %w", meterID, i, err)
		}
		used := (rb.N*rb.Level + 7) / 8
		e.blocks = append(e.blocks, block{
			epoch:   uint32(rb.Epoch),
			level:   uint8(rb.Level),
			n:       uint32(rb.N),
			firstT:  rb.FirstT,
			stride:  rb.Stride,
			sum:     rb.Sum,
			minV:    rb.MinV,
			maxV:    rb.MaxV,
			payload: rb.Payload[:used:used],
			hist:    rb.Hist,
			spilled: rb.Spilled,
		})
		e.dirFirst = append(e.dirFirst, rb.FirstT)
		total += rb.N
		if i > 0 && e.blocks[i-1].lastT() > rb.FirstT {
			ordered = false
		}
	}
	e.total.Store(int64(total))
	if len(e.blocks) == 0 {
		e.idx.Store(&emptyIndex)
	} else {
		e.idx.Store(&sealedIndex{
			tables:  e.tables,
			blocks:  e.blocks[:len(e.blocks):len(e.blocks)],
			firstTs: e.dirFirst[:len(e.blocks):len(e.blocks)],
			total:   total,
			ordered: ordered,
		})
	}
	sh.register(e)
	return nil
}

// validateRestored checks one recovered block against the meter's table
// history: referenced epoch, matching level, sane point count, payload large
// enough for the packed bits, a stride the live accepts() path could have
// produced (overflow-checked — timestamps are disk input here, wire input
// there, equally untrusted), and a histogram consistent with the count.
func validateRestored(rb SealedBlock, tables []*symbolic.Table) error {
	if rb.Epoch < 0 || rb.Epoch >= len(tables) {
		return fmt.Errorf("epoch %d outside table history of %d", rb.Epoch, len(tables))
	}
	table := tables[rb.Epoch]
	if rb.Level != table.Level() {
		return fmt.Errorf("level %d does not match epoch table level %d", rb.Level, table.Level())
	}
	if rb.N < 1 || rb.N > BlockCap {
		return fmt.Errorf("point count %d outside [1,%d]", rb.N, BlockCap)
	}
	if need := (rb.N*rb.Level + 7) / 8; len(rb.Payload) < need {
		return fmt.Errorf("payload of %d bytes, need %d", len(rb.Payload), need)
	}
	if rb.N == 1 {
		if rb.Stride != 0 {
			return fmt.Errorf("single-point block with stride %d", rb.Stride)
		}
	} else if got, ok := strideFor(rb.FirstT, rb.FirstT+rb.Stride); !ok || got != rb.Stride {
		return fmt.Errorf("stride %d from %d fails progression bounds", rb.Stride, rb.FirstT)
	}
	if rb.Hist != nil {
		if len(rb.Hist) != table.K() {
			return fmt.Errorf("histogram of %d lanes, table has k=%d", len(rb.Hist), table.K())
		}
		var sum uint64
		for _, c := range rb.Hist {
			sum += uint64(c)
		}
		if sum != uint64(rb.N) {
			return fmt.Errorf("histogram mass %d does not match point count %d", sum, rb.N)
		}
	}
	return nil
}

// Snapshot returns a copy of one meter's state with the point stream
// reconstructed from its packed blocks. Only the chain header, the table
// list and the mutable tail block are copied under the shard lock; the
// actual reconstruction — the expensive part — runs after the lock is
// released, reading the sealed (immutable) blocks directly. A slow reader
// therefore no longer stalls ingest on the shard.
func (s *Store) Snapshot(meterID uint64) (MeterState, bool) {
	sh := s.shardOf(meterID)
	sh.mu.RLock()
	e := sh.meter(meterID)
	if e == nil {
		sh.mu.RUnlock()
		return MeterState{}, false
	}
	st := MeterState{ID: e.id, Sessions: e.sessions}
	st.Tables = append([]*symbolic.Table(nil), e.tables...)
	blocks := e.blocks
	total := int(e.total.Load())
	var tailCopy block
	if len(blocks) > 0 {
		// The tail keeps growing after we unlock; freeze its summary and the
		// payload bytes written so far.
		tailCopy = blocks[len(blocks)-1]
		tailCopy.payload = append([]byte(nil), tailCopy.payload...)
	}
	sh.mu.RUnlock()

	st.Points = make([]ReconPoint, 0, total)
	var scratch []symbolic.Symbol
	for i := 0; i+1 < len(blocks); i++ {
		st.Points, scratch = appendBlockPoints(st.Points, &blocks[i], st.Tables, scratch)
	}
	if len(blocks) > 0 {
		st.Points, _ = appendBlockPoints(st.Points, &tailCopy, st.Tables, scratch)
	}
	return st, true
}

// appendBlockPoints reconstructs one block's points via the codec's
// sequential range decoder, reusing scratch across blocks.
func appendBlockPoints(dst []ReconPoint, b *block, tables []*symbolic.Table, scratch []symbolic.Symbol) ([]ReconPoint, []symbolic.Symbol) {
	values := tables[b.epoch].ReconstructionValues()
	scratch = symbolic.AppendUnpackRange(scratch[:0], b.payload, int(b.level), 0, int(b.n))
	for i, s := range scratch {
		dst = append(dst, ReconPoint{
			T: b.firstT + int64(i)*b.stride,
			S: s,
			V: values[s.Index()],
		})
	}
	return dst, scratch
}

// view builds the visitor view for a block under the meter's live tables
// (callers hold the shard lock).
func (e *meterEntry) view(b *block) BlockView {
	return viewOf(b, e.tables)
}

// Meters returns the IDs of every meter the store has seen, in no
// particular order, reading only the published meter lists — no shard
// lock is taken.
func (s *Store) Meters() []uint64 {
	var ids []uint64
	for i := range s.shards {
		for _, m := range s.shards[i].meterList() {
			ids = append(ids, m.ID())
		}
	}
	return ids
}

// TotalSymbols returns the number of stored points across all meters,
// reading only published state — no shard lock is taken. Concurrent appends
// may or may not be included, exactly as with any racing counter read.
func (s *Store) TotalSymbols() int {
	total := 0
	for i := range s.shards {
		for _, m := range s.shards[i].meterList() {
			total += m.TotalSymbols()
		}
	}
	return total
}

// MemoryFootprint returns the resident bytes attributable to point storage
// and the number of stored points — the basis of the benchmark's
// resident_bytes_per_symbol. Reserve arenas (payload, histogram and
// index-struct slabs) are counted at their full allocated size (carved
// regions stay resident for the slab's lifetime, trimmed or not); blocks add
// their metadata plus any payload or histogram they own outside an arena —
// except spilled payloads, which alias mmapped segment files and cost page
// cache, not heap; the time directory adds 8 bytes per slot of its capacity
// and the spill-recycled tail buffer its capacity. Table and map overhead is
// excluded: both exist identically in any storage scheme.
func (s *Store) MemoryFootprint() (bytes, points int64) {
	const blockMeta = int64(unsafe.Sizeof(block{}))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, m := range sh.meterList() {
			e := m.e
			points += e.total.Load()
			bytes += e.arenaBytes
			bytes += 8 * int64(cap(e.dirFirst))
			bytes += int64(cap(e.recycle))
			for j := range e.blocks {
				b := &e.blocks[j]
				bytes += blockMeta
				if !b.payloadFromArena && !b.spilled {
					bytes += int64(cap(b.payload))
				}
				if !b.histFromArena {
					bytes += 4 * int64(cap(b.hist))
				}
			}
		}
		sh.mu.RUnlock()
	}
	return bytes, points
}
