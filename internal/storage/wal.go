package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// Per-shard write-ahead log.
//
// Every table push and every batch is framed into the shard's log
// before it commits to the in-memory store, so the log's record sequence is,
// per meter, exactly the ingest history. A batch record carries the very
// packed bytes the live path committed (Store.AppendPacked), and replay hands
// them to the same run-granular commit (Store.AppendRun), which rebuilds
// byte-identical block chains. Records from
// different meters of one shard interleave in commit order, which is
// irrelevant to recovery (records carry their meter ID and each meter's
// subsequence is totally ordered by its single session).
//
// Record framing:
//
//	n(uint32 BE) | ^n(uint32 BE) | crc32c(body)(uint32 BE) | body
//	body = type(1) | payload
//
// The redundant ^n field plus a forward resync scan let replay tell a torn
// tail from corruption. A process crash can only leave a byte *prefix* of
// the last write, but an OS or power crash can persist the final record's
// pages out of order — a complete-looking header over a damaged body, or
// vice versa — so "in bounds" alone cannot condemn a file. Replay therefore
// applies two rules:
//
//   - Damage with NO structurally valid record anywhere after it is a torn
//     tail: everything before it is intact, the damaged region was the last
//     thing in flight (and was never acknowledged as durable under the sync
//     mode in use when the failure could lose it), and the file is
//     truncated back to the last whole record.
//   - Damage *followed by* a valid record — a flipped bit in the middle of
//     the log — is corruption and fails recovery loudly with ErrWALCorrupt:
//     records after the damage are readable and acknowledged, and the log
//     never silently drops them.
//
// The resync scan walks the remaining bytes with the cheap n == ^inv header
// probe and confirms a candidate only if its CRC also matches, so random
// damage cannot fake a successor record (probability ~2^-64 per offset).
//
// Record types:
//
//	'T': meterID(uint64) | symbolic.MarshalTable bytes
//	'B': meterID(uint64) | epoch(uint32) | level(uint8) | kind(uint8) |
//	     count(uint32) | timestamps | packed symbols (headerless, MSB-first)
//	     kind 0 (arithmetic): timestamps = firstT(int64) | stride(int64)
//	     kind 1 (explicit):   timestamps = count × int64
//	't': seq(uint64) | 'T' body — a table push committed under a session
//	     sequence number (manifest format ≥ 3)
//	'b': seq(uint64) | 'B' body — a batch committed under a session
//	     sequence number (manifest format ≥ 3)
//
// Every ingest path writes 't' and 'b'. 'T' and 'B' are what directories
// written before sequencing hold; recovery reads them unchanged, with mark 0.
//
// Batches off the wire are arithmetic in practice (the transport already
// reconstructs firstT + i·window), so kind 0 — 16 bytes for any batch — is
// the hot encoding; kind 1 keeps the log lossless for arbitrary
// timestamps. The sequenced variants exist for exactly-once ingest: recovery
// restores each meter's sequence high-water mark as the max seq across every
// replayed record, so a reconnecting client learns which batches survived
// the crash and replays only the rest.
const (
	walHeaderLen = 12
	recTable     = 'T'
	recBatch     = 'B'
	recSeqTable  = 't'
	recSeqBatch  = 'b'
	// maxWALRecord bounds a record body against corrupted length fields,
	// mirroring the transport's frame cap.
	maxWALRecord = 16 << 20
)

// crcC is the Castagnoli table (CRC-32C, the storage-standard polynomial
// with hardware support on current CPUs).
var crcC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALCorrupt reports WAL bytes that are damaged somewhere other than a
// torn tail; recovery refuses to guess and fails loudly.
var ErrWALCorrupt = errors.New("storage: wal corrupt")

// SyncMode selects the WAL durability/latency trade (see the README's
// fsync-vs-throughput numbers).
type SyncMode int

const (
	// SyncOff never fsyncs: a batch is acknowledged once write(2) returns,
	// which survives process death (kill -9) but not OS/power failure.
	SyncOff SyncMode = iota
	// SyncGroup acknowledges after write(2) and lets a background syncer
	// fsync all shard logs on a short interval: OS-crash loss is bounded by
	// that interval, per-append latency stays at SyncOff levels.
	SyncGroup
	// SyncAlways blocks each append until an fsync covers its record.
	// Concurrent appenders share fsyncs leader-style (group commit), so the
	// cost amortizes across sessions, not per batch.
	SyncAlways
)

// ParseSyncMode maps the -fsync flag values off|group|always.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync mode %q (want off, group or always)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// errWALPoisoned marks a wal that refused a write because an earlier write
// on it already failed: the file may hold a torn record at its tail, so
// writing more behind it would bury the tear mid-log and turn a tolerated
// torn tail into fatal ErrWALCorrupt at recovery. The engine reacts by
// retrying on the replacement wal if a heal has rotated one in, or
// surfacing the original failure if not.
var errWALPoisoned = errors.New("storage: wal poisoned by earlier write failure")

// wal is one shard's append-only log.
type wal struct {
	mu  sync.Mutex // serializes record assembly + write
	f   File
	buf []byte // record assembly scratch, reused across appends

	// failed latches the first write error (under mu): the file may end in
	// a torn record, so every later write is refused with errWALPoisoned.
	failed error

	// written is the end offset of the last fully-written record, read by
	// the sync side without the append lock.
	written atomic.Int64

	// Leader-based group commit: the first waiter past the synced watermark
	// runs the fsync for everyone behind it.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool
	synced   int64
	syncErr  error
}

func newWAL(f File, off int64) *wal {
	w := &wal{f: f}
	w.written.Store(off)
	w.synced = off
	w.syncCond = sync.NewCond(&w.syncMu)
	return w
}

// appendRecord frames body (type byte already first) and writes it in a
// single Write, returning the record's end offset. The caller owns making
// body through beginRecord/w.buf under w.mu; appendRecord is called with
// w.mu held.
func (w *wal) writeLocked(buf []byte) (int64, error) {
	if w.failed != nil {
		return 0, fmt.Errorf("%w: %w", errWALPoisoned, w.failed)
	}
	bodyLen := len(buf) - walHeaderLen
	binary.BigEndian.PutUint32(buf[0:], uint32(bodyLen))
	binary.BigEndian.PutUint32(buf[4:], ^uint32(bodyLen))
	binary.BigEndian.PutUint32(buf[8:], crc32.Checksum(buf[walHeaderLen:], crcC))
	if _, err := w.f.Write(buf); err != nil {
		// A partial append leaves a torn tail — exactly what replay
		// tolerates — but this wal must never write behind it: a record
		// after the tear would make it mid-log corruption.
		w.failed = err
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	end := w.written.Add(int64(len(buf)))
	return end, nil
}

// walHdrZero is the placeholder the record builders reserve up front and
// writeLocked fills in, keeping assembly append-only and allocation-free.
var walHdrZero [walHeaderLen]byte

// appendTable logs a table push — typ recTable, or recSeqTable with the
// session sequence number it commits under.
func (w *wal) appendTable(typ byte, seq, meterID uint64, t *symbolic.Table) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := append(w.buf[:0], walHdrZero[:]...)
	buf = append(buf, typ)
	if typ == recSeqTable {
		buf = binary.BigEndian.AppendUint64(buf, seq)
	}
	buf = binary.BigEndian.AppendUint64(buf, meterID)
	buf = symbolic.AppendTable(buf, t)
	w.buf = buf
	return w.writeLocked(buf)
}

// appendBatch logs one batch under the meter's current epoch — typ recBatch,
// or recSeqBatch with the session sequence number it commits under. packed is
// the batch's symbols as server.PackPoints laid them out, which is the
// record's own layout: the bytes are copied, never re-derived.
func (w *wal) appendBatch(typ byte, seq, meterID uint64, epoch uint32, level int, pts []symbolic.SymbolPoint, packed []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := append(w.buf[:0], walHdrZero[:]...)
	buf = append(buf, typ)
	if typ == recSeqBatch {
		buf = binary.BigEndian.AppendUint64(buf, seq)
	}
	buf = binary.BigEndian.AppendUint64(buf, meterID)
	buf = binary.BigEndian.AppendUint32(buf, epoch)
	buf = append(buf, byte(level))
	// One arithmetic progression (any common difference, including zero) is
	// the compact encoding.
	kind := byte(0)
	if server.LeadingRun(pts) < len(pts) {
		kind = 1
	}
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pts)))
	if kind == 0 {
		var firstT, stride int64
		if len(pts) > 0 {
			firstT = pts[0].T
		}
		if len(pts) > 1 {
			stride = pts[1].T - pts[0].T
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(firstT))
		buf = binary.BigEndian.AppendUint64(buf, uint64(stride))
	} else {
		for i := range pts {
			buf = binary.BigEndian.AppendUint64(buf, uint64(pts[i].T))
		}
	}
	buf = append(buf, packed...)
	w.buf = buf
	return w.writeLocked(buf)
}

// syncTo blocks until an fsync covers offset upto. The first blocked caller
// becomes the leader and syncs everything written so far; later callers
// piggyback on that fsync or the next one.
func (w *wal) syncTo(upto int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.synced >= upto {
			return nil
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		target := w.written.Load()
		w.syncMu.Unlock()
		err := w.f.Sync()
		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = fmt.Errorf("storage: wal fsync: %w", err)
		} else if target > w.synced {
			w.synced = target
		}
		w.syncCond.Broadcast()
	}
}

// dirty reports whether written records are not yet covered by an fsync —
// what the SyncGroup background syncer polls.
func (w *wal) dirty() bool {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncErr == nil && w.synced < w.written.Load()
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// --- Replay ----------------------------------------------------------------

// walScan walks one log file's bytes record by record, applying the
// torn-tail rules from the package comment. Records are handed out straight
// off the read buffer — nothing is materialized per record.
type walScan struct {
	data []byte
	// off is the end of the last record next returned: once next reports the
	// end, it is the byte length of the file's intact prefix (the truncation
	// point when bytes remain behind it).
	off int
}

// next validates the record at the cursor — consistent header, plausible
// length, matching CRC — and returns its body (type byte first), or nil at
// the end of the intact prefix. Damage with nothing readable behind it is a
// torn final write (process or OS crash) and simply ends the scan; damage
// with an intact record after it is mid-log corruption — truncating there
// would silently lose acknowledged data — and fails with ErrWALCorrupt.
func (s *walScan) next() ([]byte, error) {
	data, off := s.data, s.off
	if off == len(data) {
		return nil, nil
	}
	rem := len(data) - off
	bad := ""
	switch n, inv := headerAt(data, off); {
	case rem < walHeaderLen:
		bad = "partial header"
	case inv != ^n:
		bad = "inconsistent record header"
	case n < 1 || n > maxWALRecord:
		bad = fmt.Sprintf("impossible record length %d", n)
	case rem < walHeaderLen+int(n):
		bad = "partial body"
	case crc32.Checksum(data[off+walHeaderLen:off+walHeaderLen+int(n)], crcC) != binary.BigEndian.Uint32(data[off+8:]):
		bad = "record CRC mismatch"
	default:
		var body []byte
		body, s.off = recordAt(data, off)
		return body, nil
	}
	if nextValidRecord(data, off+1) {
		return nil, fmt.Errorf("%w: %s at offset %d with intact records after it", ErrWALCorrupt, bad, off)
	}
	return nil, nil
}

// recordAt returns the body of the record starting at off and the offset
// just past it. The framing must already be validated (walScan.next did):
// the replay pass walks a scanned prefix with it instead of re-checking CRCs.
func recordAt(data []byte, off int) (body []byte, end int) {
	end = off + walHeaderLen + int(binary.BigEndian.Uint32(data[off:]))
	return data[off+walHeaderLen : end], end
}

// headerAt reads a record header's length fields (zero when fewer than 8
// bytes remain — the caller's bounds checks fire first).
func headerAt(data []byte, off int) (n, inv uint32) {
	if len(data)-off < 8 {
		return 0, 0
	}
	return binary.BigEndian.Uint32(data[off:]), binary.BigEndian.Uint32(data[off+4:])
}

// nextValidRecord reports whether any offset at or after from starts a
// structurally valid record (consistent header, plausible length, matching
// body CRC). The header probe is 8 bytes and self-checking, so the CRC —
// the expensive part — runs only on the ~2^-32 of offsets that pass it.
func nextValidRecord(data []byte, from int) bool {
	for off := from; off+walHeaderLen < len(data); off++ {
		n, inv := headerAt(data, off)
		if inv != ^n || n < 1 || n > maxWALRecord {
			continue
		}
		if len(data)-off < walHeaderLen+int(n) {
			continue
		}
		if crc32.Checksum(data[off+walHeaderLen:off+walHeaderLen+int(n)], crcC) == binary.BigEndian.Uint32(data[off+8:]) {
			return true
		}
	}
	return false
}

// batchHeaderLen is the fixed prefix of a 'B' payload: meterID, epoch,
// level, timestamp kind, count.
const batchHeaderLen = 18

// batchHeader is a 'B' record's fixed header.
type batchHeader struct {
	meterID uint64
	epoch   uint32
	level   int
	kind    byte // 0 arithmetic timestamps, 1 explicit
	count   int
}

// parseBatchHeader validates a 'B' payload without unpacking a symbol:
// every field is range-checked and the payload length must be exactly what
// level, kind and count imply — the payload is disk input. Replay consumes a
// segment-covered batch on the strength of this alone, so everything the
// point decode could reject is rejected here.
func parseBatchHeader(data []byte) (batchHeader, error) {
	if len(data) < batchHeaderLen {
		return batchHeader{}, fmt.Errorf("%w: batch record of %d bytes", ErrWALCorrupt, len(data))
	}
	h := batchHeader{
		meterID: binary.BigEndian.Uint64(data[0:]),
		epoch:   binary.BigEndian.Uint32(data[8:]),
		level:   int(data[12]),
		kind:    data[13],
		count:   int(binary.BigEndian.Uint32(data[14:])),
	}
	if h.level < 1 || h.level > symbolic.MaxLevel {
		return h, fmt.Errorf("%w: batch at level %d", ErrWALCorrupt, h.level)
	}
	if h.kind > 1 {
		return h, fmt.Errorf("%w: batch timestamp kind %d", ErrWALCorrupt, h.kind)
	}
	if want := h.tsBytes() + (h.count*h.level+7)/8; h.count < 1 || len(data)-batchHeaderLen != want {
		return h, fmt.Errorf("%w: batch of %d points with %d trailing bytes, want %d", ErrWALCorrupt, h.count, len(data)-batchHeaderLen, want)
	}
	return h, nil
}

func (h batchHeader) tsBytes() int {
	if h.kind == 1 {
		return 8 * h.count
	}
	return 16
}

// apply commits symbols [from, count) of a 'B' payload whose header
// parseBatchHeader accepted, handing the record's own packed bytes to the
// store as arithmetic runs: the whole remainder for kind 0, one run per
// maximal progression of the explicit timestamps for kind 1. It returns how
// many symbols the store took.
func (h batchHeader) apply(st *server.Store, data []byte, from int) (int, error) {
	rest := data[batchHeaderLen:]
	run := server.Run{Level: h.level, Packed: rest[h.tsBytes():], Pos: from, Count: h.count - from, Epoch: int(h.epoch)}
	if h.kind == 0 {
		run.Stride = int64(binary.BigEndian.Uint64(rest[8:]))
		run.FirstT = int64(binary.BigEndian.Uint64(rest)) + int64(from)*run.Stride
		return st.AppendRun(h.meterID, run)
	}
	ts := func(i int) int64 { return int64(binary.BigEndian.Uint64(rest[8*i:])) }
	total := 0
	for run.Pos < h.count {
		end := run.Pos + 1
		run.FirstT, run.Stride = ts(run.Pos), 0
		if end < h.count {
			run.Stride = ts(end) - run.FirstT
			for end++; end < h.count && ts(end)-ts(end-1) == run.Stride; end++ {
			}
		}
		run.Count = end - run.Pos
		n, err := st.AppendRun(h.meterID, run)
		total += n
		if err != nil {
			return total, err
		}
		run.Pos = end
	}
	return total, nil
}

// stripSeq normalizes a possibly-sequenced record body to its legacy type
// and payload, returning the sequence number (0 for legacy records) — replay
// handles 't'/'b' exactly like 'T'/'B' plus a high-water-mark update.
func stripSeq(body []byte) (typ byte, seq uint64, data []byte, err error) {
	typ, data = body[0], body[1:]
	switch typ {
	case recSeqTable, recSeqBatch:
		if len(data) < 8 {
			return 0, 0, nil, fmt.Errorf("%w: sequenced record of %d bytes", ErrWALCorrupt, len(data))
		}
		return typ - ('a' - 'A'), binary.BigEndian.Uint64(data), data[8:], nil
	}
	return typ, 0, data, nil
}

// decodeTable parses a 'T' record payload, interning its table in st
// (Store.InternTable): bytes st has already interned are not decoded again.
func decodeTable(st *server.Store, data []byte) (uint64, *symbolic.Table, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("%w: table record of %d bytes", ErrWALCorrupt, len(data))
	}
	t, err := st.InternTable(data[8:])
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	return binary.BigEndian.Uint64(data[0:]), t, nil
}
