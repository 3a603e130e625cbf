// Package storage is the durability layer under the in-memory aggregation
// store: a per-shard write-ahead log for everything a session commits, plus
// immutable segment files that sealed blocks spill into the moment they
// seal, plus crash recovery that rebuilds a byte-identical store from the
// newest segment manifest and the WAL tails above it.
//
// The split mirrors the store's own hot/cold split. The WAL is the hot
// tail's durability: every batch and table push is framed, CRC'd and
// written (one write(2) per batch) before the store commits it, so an
// acknowledged batch survives process death in every sync mode and OS death
// per the chosen SyncMode. Segments are the sealed data's durability *and*
// its eviction: the seal path hands each finished 512-symbol block to the
// shard's segment writer, which appends the packed payload to a
// preallocated, mmapped file and returns the mapped bytes for the store to
// adopt — after which queries aggregate directly over the on-disk words
// through the same packed-domain kernels, and resident memory is bounded by
// live tails, summaries and directories no matter how much history
// accumulates.
//
// Recovery runs one independent pipeline per shard, on min(GOMAXPROCS, shards)
// workers — a meter lives in exactly one shard of both the log and the store.
// Each pipeline rebuilds its meters' sealed chains from the manifest-listed
// segments (summaries and the firstT directory come from the segment footers,
// decoded in place from the mapping — no payload is decoded), then maps its
// WAL generations and walks them once, validating every record and queueing
// only what the segments do not cover, and applies that list the way live
// ingest did — each batch record's packed bytes go to the store's
// run-granular commit as they lie in the mapping — rebuilding the live tails
// and any blocks that sealed after the last finished segment. A batch the
// segments cover whole is skipped on its header: its CRC, its header fields
// and length, and its epoch against the log position are all still checked.
// No symbol is unpacked either way, and no log byte is copied to the heap.
// Anything torn at the very end of a WAL was never acknowledged and is
// truncated; damage anywhere else fails recovery loudly (ErrWALCorrupt)
// rather than silently dropping acknowledged data.
//
// Every filesystem operation goes through the FS seam (fs.go), and every
// durability failure is classified by the health state machine (health.go):
// the engine degrades to queries-only instead of crashing or lying, and
// heals onto a fresh WAL generation when the directory recovers.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symmeter/internal/metrics"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing). Its layout:
	// MANIFEST.json, wal/shard-NNNN[-GGGGGG].wal, seg/NNNN-SSSSSS.seg.
	Dir string
	// Shards is the store's shard count for a fresh directory; an existing
	// directory's manifest takes precedence (the WAL files are per-shard).
	Shards int
	// Sync is the WAL durability mode; the default is SyncGroup.
	Sync SyncMode
	// GroupInterval is the background fsync cadence under SyncGroup
	// (default 2ms) — the OS-crash data-loss bound.
	GroupInterval time.Duration
	// SegmentBytes caps one segment file's preallocated size (default 4MiB,
	// min 64KiB).
	SegmentBytes int
	// FS is the filesystem the engine writes through; nil means the real
	// one (OsFS). Tests inject internal/faultfs here.
	FS FS
	// ProbeInterval is the cadence of the background health probe that
	// re-tests a degraded data directory (default 500ms).
	ProbeInterval time.Duration
	// Metrics is the registry the engine's telemetry (WAL latency recorders,
	// health gauges, fault counters) registers on. Nil creates a private
	// registry, so the recording paths never branch on telemetry being
	// enabled. Pass the serving registry to expose the series on /metrics;
	// never share one registry between two engines — the series collide.
	Metrics *metrics.Registry
}

// RecoveryStats reports what Open rebuilt.
type RecoveryStats struct {
	// Segments and SegmentBlocks/SegmentPoints count the sealed state
	// restored from manifest-listed segment files without decoding.
	Segments      int
	SegmentBlocks int
	SegmentPoints int64
	// WALRecords is the total parsed log records; ReplayedPoints the points
	// re-appended through the store (tails plus post-manifest seals);
	// SkippedPoints the points the segment restore already covered.
	WALRecords     int
	ReplayedPoints int64
	SkippedPoints  int64
	// TornTails counts WAL files whose unacknowledged trailing write was
	// dropped and truncated.
	TornTails int
	// Meters is the number of recovered meters.
	Meters int
	// Duration is the wall-clock time recovery took inside Open.
	// SegmentRestore, WALParse and Replay split the work by phase — segment
	// mapping, in-place footer decode and sealed-chain install; the one scan
	// of the mapped log (framing, CRC, record validation, covered points
	// consumed, apply list built); the apply list's replay of the uncovered
	// records — each summed over the shard pipelines, which run in parallel:
	// together they can exceed Duration.
	Duration       time.Duration
	SegmentRestore time.Duration
	WALParse       time.Duration
	Replay         time.Duration
}

// add sums one shard pipeline's counts and phase times into r.
func (r *RecoveryStats) add(o RecoveryStats) {
	r.Segments += o.Segments
	r.SegmentBlocks += o.SegmentBlocks
	r.SegmentPoints += o.SegmentPoints
	r.WALRecords += o.WALRecords
	r.ReplayedPoints += o.ReplayedPoints
	r.SkippedPoints += o.SkippedPoints
	r.TornTails += o.TornTails
	r.Meters += o.Meters
	r.SegmentRestore += o.SegmentRestore
	r.WALParse += o.WALParse
	r.Replay += o.Replay
}

// Engine wraps a server.Store with the WAL + segment durability layer. It
// implements server.Ingest, so a Service routes session writes through it
// unchanged. Flush and Close require ingest to be quiesced (sessions
// drained): the segment writers run under the store's shard locks on the
// seal path and are not otherwise synchronized.
type Engine struct {
	opts  Options
	fs    FS
	store *server.Store
	segs  []*segmentWriter

	// wals holds each shard's current log behind an atomic pointer so a
	// heal can rotate in a fresh generation while appends are in flight; a
	// retired log stays open (its records are the replay source and
	// stragglers may still touch it) until Close.
	wals      []atomic.Pointer[wal]
	walGen    atomic.Uint64
	retiredMu sync.Mutex
	retired   []*wal

	// packs is a free list of batch-packing scratch: a batch is packed once,
	// outside the shard lock, for both its WAL record and the store commit,
	// and its buffer goes back once the store has copied the bytes. At most
	// packSlots buffers are kept, so the scratch follows concurrent commits,
	// not fleet size. Every piece of per-meter ingest state — mark, epoch,
	// level — lives in the store alone.
	packs chan *[]byte

	manMu sync.Mutex
	man   manifest

	mapsMu sync.Mutex
	maps   [][]byte

	health healthState
	met    *engineMetrics

	stop   chan struct{}
	syncWG sync.WaitGroup
	closed atomic.Bool

	recovered RecoveryStats
}

// Open recovers (or initializes) the data directory and returns the engine
// with its rebuilt store. The store answers queries immediately; install the
// engine as the service's Ingest to make new traffic durable.
func Open(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, errors.New("storage: Options.Dir is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < 64<<10 {
		opts.SegmentBytes = 64 << 10
	}
	if opts.GroupInterval <= 0 {
		opts.GroupInterval = 2 * time.Millisecond
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OsFS{}
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "wal"), filepath.Join(opts.Dir, "seg")} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	man, haveMan, migrated, err := loadManifest(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	if !haveMan {
		man = manifest{Format: manifestFormat, Shards: opts.Shards}
	}
	if !haveMan || migrated {
		if err := writeManifest(fsys, opts.Dir, man); err != nil {
			return nil, err
		}
	}
	// The directory's shard count wins: the WAL is partitioned by it.
	opts.Shards = man.Shards

	reg := opts.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	e := &Engine{
		opts:  opts,
		fs:    fsys,
		store: server.NewStore(man.Shards),
		man:   man,
		met:   newEngineMetrics(reg),
		packs: make(chan *[]byte, packSlots),
	}
	e.registerHealthMetrics()
	e.walGen.Store(man.WALGen)
	if err := e.recover(); err != nil {
		e.unwind()
		return nil, err
	}
	e.registerRecoveryMetrics()
	e.stop = make(chan struct{})
	// The probe runs for the engine's lifetime (idle while Healthy) so a
	// degrade never has to race a goroutine start against Close.
	e.syncWG.Add(1)
	go e.probeLoop(opts.ProbeInterval)
	if opts.Sync == SyncGroup {
		e.syncWG.Add(1)
		go e.groupSync()
	}
	return e, nil
}

// Store returns the recovered (and live) aggregation store.
func (e *Engine) Store() *server.Store { return e.store }

// Recovery returns what Open rebuilt.
func (e *Engine) Recovery() RecoveryStats { return e.recovered }

// Sync returns the engine's WAL durability mode.
func (e *Engine) Sync() SyncMode { return e.opts.Sync }

func (e *Engine) segDir() string { return filepath.Join(e.opts.Dir, "seg") }

// walGenPath names shard's log at the given generation. Generation 0 is the
// original pre-rotation layout (format 1 directories have only it).
func (e *Engine) walGenPath(shard int, gen uint64) string {
	if gen == 0 {
		return filepath.Join(e.opts.Dir, "wal", fmt.Sprintf("shard-%04d.wal", shard))
	}
	return filepath.Join(e.opts.Dir, "wal", fmt.Sprintf("shard-%04d-%06d.wal", shard, gen))
}

// walGenOf parses a log file name's generation; ok is false for names that
// are not shard logs.
func walGenOf(name string) (gen uint64, ok bool) {
	if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "shard-"), ".wal")
	switch parts := strings.Split(mid, "-"); len(parts) {
	case 1:
		return 0, true
	case 2:
		g, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return g, true
	}
	return 0, false
}

// recover rebuilds the store: orphan cleanup, then one independent pipeline
// per shard (recoverShard) on min(GOMAXPROCS, shards) workers. A meter lives
// in exactly one shard of both the WAL and the store, so the pipelines share
// nothing but what live ingest already shares across shards. On error the
// caller (Open) unwinds every file and mapping opened so far — recover waits
// for every worker first, so nothing is still being opened when it does.
func (e *Engine) recover() error {
	start := time.Now()
	shards := e.opts.Shards

	// Drop segment files the manifest does not list — the open segment of a
	// crashed run has no footer and its blocks replay from the WAL — and WAL
	// generations above the manifest's: a heal that crashed before its
	// manifest barrier never acknowledged anything into them. The manifest's
	// segments are bucketed by shard here, before any pipeline can finish a
	// respilled segment into e.man.
	listed := make(map[string]bool, len(e.man.Segments))
	nextSeq := make([]uint64, shards)
	shardSegs := make([][]manifestSegment, shards)
	for _, ms := range e.man.Segments {
		if ms.Shard < 0 || ms.Shard >= shards {
			return fmt.Errorf("storage: manifest segment %s claims shard %d of %d", ms.File, ms.Shard, shards)
		}
		listed[ms.File] = true
		if ms.Seq >= nextSeq[ms.Shard] {
			nextSeq[ms.Shard] = ms.Seq + 1
		}
		shardSegs[ms.Shard] = append(shardSegs[ms.Shard], ms)
	}
	entries, err := e.fs.ReadDir(e.segDir())
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() && !listed[ent.Name()] {
			if err := e.fs.Remove(filepath.Join(e.segDir(), ent.Name())); err != nil {
				return err
			}
		}
	}
	walEntries, err := e.fs.ReadDir(filepath.Join(e.opts.Dir, "wal"))
	if err != nil {
		return err
	}
	for _, ent := range walEntries {
		if gen, ok := walGenOf(ent.Name()); ok && gen > e.man.WALGen {
			if err := e.fs.Remove(filepath.Join(e.opts.Dir, "wal", ent.Name())); err != nil {
				return err
			}
		}
	}

	// Install the seal sink before any replay, so blocks that seal during
	// replay spill to fresh segments exactly as live ones do and recovery's
	// resident memory stays bounded too.
	e.segs = make([]*segmentWriter, shards)
	for i := range e.segs {
		e.segs[i] = &segmentWriter{eng: e, shard: i, seq: nextSeq[i], cap: e.opts.SegmentBytes}
	}
	e.store.SetSealSink(e)
	e.wals = make([]atomic.Pointer[wal], shards)

	stats := make([]RecoveryStats, shards)
	errs := make([]error, shards)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), shards); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < shards; i = int(cursor.Add(1)) - 1 {
				stats[i], errs[i] = e.recoverShard(i, shardSegs[i])
			}
		}()
	}
	wg.Wait()
	// Every shard ran to its own verdict, so the error reported is the
	// lowest-numbered failing shard's whatever the scheduling was.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, rs := range stats {
		e.recovered.add(rs)
	}
	e.recovered.Duration = time.Since(start)
	return nil
}

// meterReplay is one meter's recovery state, local to its shard's pipeline.
type meterReplay struct {
	sealed    int                  // blocks the shard's segment footers hold for it
	blocks    []server.SealedBlock // restored from manifest segments, in spill order
	skip      int64                // leading points of the log those blocks cover
	installed int                  // tables the restore installs: those the blocks reference
	tables    []*symbolic.Table    // the log's whole table history, in order
	maxSeq    uint64
}

// logRec is one record the log scan left for the apply pass — a table push
// past the restored ones, or a batch with points the segments do not cover —
// located in the mapped log. It holds no pointer, so a crash recovery's list
// of every record grows without write barriers and is never scanned by GC.
type logRec struct {
	off int64 // the record's offset in its generation
	gen int32 // index of its generation among the mapped ones
	// pos is a batch's leading points the segments cover, or a table push's
	// index in its meter's table history.
	pos int32
}

// recoverShard is one shard's recovery pipeline: restore its meters' sealed
// chains from the manifest segments, scan its WAL generations once, install
// the chains, apply the part of the log the segments do not cover, and open
// the current generation for appending. Every log mapping is released
// before it returns; the segment mappings live on as the chains' payloads.
func (e *Engine) recoverShard(shard int, segs []manifestSegment) (rs RecoveryStats, err error) {
	meters := make(map[uint64]*meterReplay)
	meter := func(id uint64) *meterReplay {
		mr := meters[id]
		if mr == nil {
			mr = new(meterReplay)
			meters[id] = mr
		}
		return mr
	}

	// 1. Manifest segments: each meter's sealed chain in spill order
	// (manifest order is per-shard finish order) and how many points of the
	// log it covers. Summaries and the firstT directory come from the footers,
	// decoded in place.
	phase := time.Now()
	footers := make([]segFooter, 0, len(segs))
	for _, ms := range segs {
		sf, err := openSegment(e.fs, filepath.Join(e.segDir(), ms.File))
		if err != nil {
			return rs, err
		}
		e.trackMapping(sf.mapping)
		footers = append(footers, sf)
	}
	rs.Segments = len(footers)
	if rs.SegmentBlocks, rs.SegmentPoints, err = restoreSegments(footers, meter); err != nil {
		return rs, err
	}
	rs.SegmentRestore = time.Since(phase)

	// 2. Scan the shard's log once — every generation up to the manifest's,
	// oldest first, each mapped rather than read; the record stream is their
	// concatenation. Each file tolerates its own torn tail (truncated here;
	// only the intact prefix is read after); damage anywhere else is
	// corruption. Every record is validated here, before anything touches the
	// store: framing, table decode, each batch's header and its epoch against
	// the log position. Sequenced records ('t'/'b') advance the meter's
	// sequence high-water mark, covered ones too, since those were committed.
	// A batch the segments cover whole is consumed on its header; what they do
	// not cover, and every table past the restored ones, joins the apply list.
	phase = time.Now()
	var valid int64 // the current generation's intact prefix
	var logMaps [][]byte
	defer func() {
		for _, m := range logMaps {
			e.fs.Munmap(m)
		}
	}()
	var apply []logRec
	for g := uint64(0); g <= e.man.WALGen; g++ {
		path := e.walGenPath(shard, g)
		raw, err := mapLog(e.fs, path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return rs, err
		}
		if raw != nil {
			logMaps = append(logMaps, raw)
		}
		sc := walScan{data: raw}
		for {
			at := sc.off
			body, err := sc.next()
			if err != nil {
				return rs, fmt.Errorf("%s: %w", path, err)
			}
			if body == nil {
				break
			}
			rs.WALRecords++
			typ, seq, payload, err := stripSeq(body)
			if err != nil {
				return rs, fmt.Errorf("%s: %w", path, err)
			}
			switch typ {
			case recTable:
				m, t, err := decodeTable(payload)
				if err != nil {
					return rs, fmt.Errorf("%s: %w", path, err)
				}
				if e.store.ShardFor(m) != shard {
					return rs, fmt.Errorf("%s: %w: meter %d belongs to shard %d's log", path, ErrWALCorrupt, m, e.store.ShardFor(m))
				}
				mr := meter(m)
				mr.maxSeq = max(mr.maxSeq, seq)
				mr.tables = append(mr.tables, t)
				if len(mr.tables) > mr.installed {
					apply = append(apply, logRec{off: int64(at), gen: int32(len(logMaps) - 1), pos: int32(len(mr.tables) - 1)})
				}
			case recBatch:
				h, err := parseBatchHeader(payload)
				if err != nil {
					return rs, fmt.Errorf("%s: %w", path, err)
				}
				mr := meters[h.meterID]
				if mr == nil || int(h.epoch) != len(mr.tables)-1 {
					return rs, fmt.Errorf("%s: %w: meter %d batch under epoch %d does not follow that table", path, ErrWALCorrupt, h.meterID, h.epoch)
				}
				mr.maxSeq = max(mr.maxSeq, seq)
				from := min(mr.skip, int64(h.count))
				mr.skip -= from
				rs.SkippedPoints += from
				if from < int64(h.count) {
					apply = append(apply, logRec{off: int64(at), gen: int32(len(logMaps) - 1), pos: int32(from)})
				}
			default:
				return rs, fmt.Errorf("%s: %w: unknown record type %#x", path, ErrWALCorrupt, body[0])
			}
		}
		if sc.off < len(raw) {
			if err := e.fs.Truncate(path, int64(sc.off)); err != nil {
				return rs, err
			}
			rs.TornTails++
		}
		if g == e.man.WALGen {
			valid = int64(sc.off)
		}
	}
	rs.WALParse = time.Since(phase)

	// 3. Install the sealed chains, in meter order so the shard's directory
	// comes back the same on every run, with the tables the blocks reference;
	// the apply pass pushes the rest in order. Segments holding points the log
	// no longer reaches, or epochs it never logged, mean the WAL was damaged
	// or swapped — refuse rather than serve a silently shorter tail.
	phase = time.Now()
	ids := slices.Sorted(maps.Keys(meters))
	for _, m := range ids {
		mr := meters[m]
		if mr.skip > 0 {
			return rs, fmt.Errorf("%w: meter %d segments hold %d points past the end of the log", ErrWALCorrupt, m, mr.skip)
		}
		if len(mr.blocks) == 0 {
			continue
		}
		if len(mr.tables) < mr.installed {
			return rs, fmt.Errorf("%w: meter %d segments reference epoch %d but the log holds %d tables", ErrWALCorrupt, m, mr.installed-1, len(mr.tables))
		}
		if err := e.store.RestoreMeter(m, mr.tables[:mr.installed], mr.blocks); err != nil {
			return rs, err
		}
	}
	rs.SegmentRestore += time.Since(phase)

	// 4. Apply the list through the live commit path, in log order: a batch
	// commits straight from the record's packed bytes past its covered prefix
	// (batchHeader.apply → Store.AppendRun) — no symbol is ever unpacked.
	phase = time.Now()
	for _, r := range apply {
		body, _ := recordAt(logMaps[r.gen], int(r.off))
		typ, _, payload, _ := stripSeq(body) // the scan vetted the record
		if typ == recTable {
			m := binary.BigEndian.Uint64(payload)
			if err := e.ensureMeter(m); err != nil {
				return rs, err
			}
			if err := e.store.PushTable(m, meters[m].tables[r.pos]); err != nil {
				return rs, replayErr(err)
			}
			continue
		}
		h, _ := parseBatchHeader(payload)
		n, err := h.apply(e.store, payload, int(r.pos))
		rs.ReplayedPoints += int64(n)
		if err != nil {
			return rs, replayErr(err)
		}
	}
	rs.Replay = time.Since(phase)

	// Hand each meter's sequence high-water mark — what the next session's
	// handshake ack carries — to the store.
	for _, m := range ids {
		if mr := meters[m]; len(mr.tables) > 0 {
			e.store.RestoreSeq(m, mr.maxSeq)
			rs.Meters++
		}
	}

	// 5. Open the current generation's log for appending (older generations
	// stay closed — they are replay-only history).
	f, err := e.fs.OpenFile(e.walGenPath(shard, e.man.WALGen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return rs, err
	}
	e.wals[shard].Store(newWAL(f, valid))
	return rs, nil
}

// mapLog maps one WAL generation read-only: a missing file reports
// fs.ErrNotExist, an empty one maps to nil (mmap refuses length 0). The file
// is closed at once; the caller unmaps the bytes.
func mapLog(fsys FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return nil, err
	}
	raw, err := fsys.Mmap(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("storage: mmap log %s: %w", path, err)
	}
	return raw, nil
}

// unwind releases everything a failed recover() opened — WAL fds, segment
// writer fds, mappings — so a failed Open leaks nothing.
func (e *Engine) unwind() {
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			w.close()
		}
	}
	for _, sw := range e.segs {
		if sw != nil && sw.f != nil {
			sw.f.Close()
			sw.f = nil
		}
	}
	e.releaseMaps()
}

// replayErr classifies a store error hit while re-applying a log record.
// The store's validation errors mean the log's *content* is inconsistent
// with itself — that is corruption. Anything else (the respill path's
// segment I/O failing with a full disk, say) is an environmental failure on
// an intact log and must not be reported as damage: telling an operator the
// WAL is corrupt invites deleting a healthy one.
func replayErr(err error) error {
	for _, verr := range []error{server.ErrBadSymbol, server.ErrNoTable, server.ErrUnknownMeter, server.ErrDuplicateMeter} {
		if errors.Is(err, verr) {
			return fmt.Errorf("%w: replay: %v", ErrWALCorrupt, err)
		}
	}
	return fmt.Errorf("storage: replay: %w", err)
}

// ensureMeter registers a meter seen first in the WAL (no live session
// exists during replay, so the session slot is released immediately).
func (e *Engine) ensureMeter(meterID uint64) error {
	if _, ok := e.store.Meter(meterID); ok {
		return nil
	}
	if err := e.store.StartSession(meterID); err != nil {
		return err
	}
	e.store.EndSession(meterID)
	return nil
}

// SealedBlock implements server.SealSink by routing the block to its shard's
// segment writer (called under that shard's store lock). A spill failure is
// NOT a seal failure: the WAL already covers every point in the block, so
// the engine keeps the heap payload, counts the fallback, and lets the
// probe re-enable spilling when the directory recovers. Ingest keeps its
// durability promise either way.
func (e *Engine) SealedBlock(meterID uint64, blk server.SealedBlock) ([]byte, error) {
	if e.health.spillDisabled.Load() {
		e.health.spillFallbacks.Add(1)
		return blk.Payload, nil
	}
	adopted, err := e.segs[e.store.ShardFor(meterID)].SealedBlock(meterID, blk)
	if err != nil {
		e.disableSpill(err)
		e.health.spillFallbacks.Add(1)
		return blk.Payload, nil
	}
	return adopted, nil
}

// --- server.Ingest --------------------------------------------------------

// ErrClosed reports writes after Close.
var ErrClosed = errors.New("storage: engine closed")

// StartSession delegates to the store (sessions are not durable state).
// A degraded engine refuses new sessions up front — the client learns
// immediately instead of on its first batch.
func (e *Engine) StartSession(meterID uint64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if r := e.health.refuse.Load(); r != nil {
		return r.err
	}
	return e.store.StartSession(meterID)
}

// EndSession delegates to the store.
func (e *Engine) EndSession(meterID uint64) { e.store.EndSession(meterID) }

// Reserve delegates to the store.
func (e *Engine) Reserve(meterID uint64, n int) error { return e.store.Reserve(meterID, n) }

// LastSeq reports the meter's committed sequence high-water mark — 0 when
// the meter is unknown or all of its history predates sequencing — from the
// store, its one owner.
func (e *Engine) LastSeq(meterID uint64) uint64 { return e.store.LastSeq(meterID) }

// PushTableSeq logs the table under a session sequence number, then commits
// it: duplicates are suppressed without touching the log, gaps refuse, and
// the WAL record carries the seq so recovery restores the high-water mark.
// The duplicate check runs before the degraded-refusal check on purpose —
// acking an already-durable write is truthful even when the engine cannot
// accept new ones.
func (e *Engine) PushTableSeq(meterID, seq uint64, t *symbolic.Table) (bool, error) {
	if e.closed.Load() {
		return false, ErrClosed
	}
	if _, _, dup, err := e.store.AdmitSeq(meterID, seq, false, 0); dup || err != nil {
		return dup, err
	}
	if r := e.health.refuse.Load(); r != nil {
		return false, r.err
	}
	if err := e.logTable(recSeqTable, seq, meterID, t); err != nil {
		return false, err
	}
	return e.store.PushTableSeq(meterID, seq, t)
}

// logTable writes a table record. It precedes the table's commit —
// recovery must know the table that decodes every logged batch.
func (e *Engine) logTable(typ byte, seq, meterID uint64, t *symbolic.Table) error {
	_, err := e.walAppend(e.store.ShardFor(meterID), func(w *wal) (int64, error) {
		return w.appendTable(typ, seq, meterID, t)
	})
	return err
}

// AppendSeq validates the batch against the meter's current table, logs it
// under a session sequence number, waits for durability per the sync mode,
// then commits it to the store. The high-water mark advances only after the
// whole batch commits, so a refused or failed batch stays retryable under
// the same seq. Empty batches are refused (server.ErrEmptyBatch): they would
// have to be durable for the mark to survive recovery, and the WAL batch
// encoding (correctly) has no empty form.
func (e *Engine) AppendSeq(meterID, seq uint64, pts []symbolic.SymbolPoint) (int, bool, error) {
	if e.closed.Load() {
		return 0, false, ErrClosed
	}
	epoch, level, dup, err := e.store.AdmitSeq(meterID, seq, true, len(pts))
	if dup || err != nil {
		return 0, dup, err
	}
	if r := e.health.refuse.Load(); r != nil {
		return 0, false, r.err
	}
	n, err := e.commitBatch(recSeqBatch, seq, meterID, epoch, level, pts)
	return n, false, err
}

// packSlots bounds the packing scratch buffers an engine keeps for reuse:
// enough for every commit a small host runs at once; a commit beyond it
// packs into a fresh buffer.
const packSlots = 64

// commitBatch is the record-granular commit: validate and pack the batch
// once, write the record, apply the record. The validation runs before the
// log write so a rejected batch never poisons the WAL — replay must be able
// to re-apply every logged record — and the bytes the store commits are the
// bytes the record holds, so recovery (read record, apply record) rebuilds
// exactly what this built.
func (e *Engine) commitBatch(typ byte, seq, meterID uint64, epoch, level int, pts []symbolic.SymbolPoint) (int, error) {
	var scratch *[]byte
	select {
	case scratch = <-e.packs:
	default:
		scratch = new([]byte)
	}
	defer func() {
		select {
		case e.packs <- scratch:
		default:
		}
	}()
	packed, err := server.PackPoints((*scratch)[:0], pts, level)
	*scratch = packed[:0]
	if err != nil {
		return 0, err
	}
	if _, err := e.walAppend(e.store.ShardFor(meterID), func(w *wal) (int64, error) {
		return w.appendBatch(typ, seq, meterID, uint32(epoch), level, pts, packed)
	}); err != nil {
		return 0, err
	}
	return e.store.AppendPacked(meterID, seq, pts, level, packed)
}

// walAppend writes one record through the shard's current log and, under
// SyncAlways, waits for its covering fsync, classifying failures:
//
//   - write fails on the CURRENT log → the durability layer is broken:
//     degrade and return the typed refusal.
//   - write refused because the log was poisoned AND a heal has already
//     rotated a replacement in → retry on the fresh log.
//   - fsync fails → the record's durability is unknowable and the fsyncgate
//     rule forbids retrying the fsync (the kernel may have dropped the
//     dirty pages — a second, succeeding fsync would cover nothing): fail
//     the batch unacknowledged and degrade. The record stays in the log; if
//     it did reach disk it may legitimately replay after a crash, which is
//     exactly the contract of an *unacknowledged* write (at-most-once is
//     the client's retry discipline, the store never acks it twice).
func (e *Engine) walAppend(shard int, write func(*wal) (int64, error)) (int64, error) {
	for {
		w := e.wals[shard].Load()
		start := time.Now()
		end, err := write(w)
		e.met.walAppendLat.Since(start)
		if err != nil {
			if e.wals[shard].Load() != w {
				// Rotated mid-append. A poisoned refusal retries on the
				// fresh log; a genuine write error on the retired log does
				// not implicate the new one — fail just this batch.
				if errors.Is(err, errWALPoisoned) {
					continue
				}
				return 0, err
			}
			if !errors.Is(err, errWALPoisoned) {
				e.health.walWriteFailures.Add(1)
			}
			e.degrade("wal append", err)
			if r := e.health.refuse.Load(); r != nil {
				return 0, r.err
			}
			return 0, err
		}
		if e.opts.Sync == SyncAlways {
			syncStart := time.Now()
			err := w.syncTo(end)
			e.met.fsyncLat.Since(syncStart)
			if err != nil {
				if e.wals[shard].Load() == w {
					e.health.fsyncFailures.Add(1)
					e.degrade("wal fsync", err)
				}
				return 0, err
			}
		}
		return end, nil
	}
}

// --- Flush / Close --------------------------------------------------------

// Flush makes everything committed so far durable and fast to recover:
// every WAL is fsynced and every open segment is finished into the manifest
// (so the next Open restores sealed data from footers instead of replaying
// it). The store stays fully usable afterwards — published blocks keep
// aliasing their mappings and the next seal opens a fresh segment. Ingest
// must be quiesced while Flush runs.
func (e *Engine) Flush() error {
	var errs []error
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			errs = append(errs, w.syncTo(w.written.Load()))
		}
	}
	for _, sw := range e.segs {
		errs = append(errs, sw.finish())
	}
	return errors.Join(errs...)
}

// Close flushes, closes the log files (current and retired) and releases
// the segment mappings. The store must not be queried afterwards: spilled
// blocks alias the mappings Close unmaps.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.stop != nil {
		close(e.stop)
		e.syncWG.Wait()
	}
	errs := []error{e.Flush()}
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			errs = append(errs, w.close())
		}
	}
	e.retiredMu.Lock()
	for _, w := range e.retired {
		errs = append(errs, w.close())
	}
	e.retired = nil
	e.retiredMu.Unlock()
	e.releaseMaps()
	return errors.Join(errs...)
}

// Abandon releases the engine's file handles, goroutines and mappings
// WITHOUT flushing or finishing anything — the programmatic stand-in for a
// crash: on-disk state is exactly what a kill at this instant would leave
// (open segments without footers, WAL synced only as far as the mode got).
// The store must not be used afterwards. Tests and recovery benchmarks use
// it to produce crash-shaped directories without leaking descriptors.
func (e *Engine) Abandon() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if e.stop != nil {
		close(e.stop)
		e.syncWG.Wait()
	}
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			w.close()
		}
	}
	e.retiredMu.Lock()
	for _, w := range e.retired {
		w.close()
	}
	e.retired = nil
	e.retiredMu.Unlock()
	for _, sw := range e.segs {
		if sw != nil && sw.f != nil {
			sw.f.Close()
			sw.f = nil
		}
	}
	e.releaseMaps()
}

func (e *Engine) trackMapping(m []byte) {
	if m == nil {
		return
	}
	e.mapsMu.Lock()
	e.maps = append(e.maps, m)
	e.mapsMu.Unlock()
}

func (e *Engine) releaseMaps() {
	e.mapsMu.Lock()
	defer e.mapsMu.Unlock()
	for _, m := range e.maps {
		e.fs.Munmap(m)
	}
	e.maps = nil
}

// addSegment records a finished segment in the manifest, atomically. A
// transient manifest-write failure retries with capped backoff; exhausting
// the retries degrades the engine. Either way the in-memory manifest keeps
// the entry — the segment file is fully durable (finish fsynced it before
// calling here), so any later successful manifest write may list it; until
// one does, recovery treats it as an orphan and re-derives its blocks from
// the WAL.
func (e *Engine) addSegment(ms manifestSegment) error {
	e.manMu.Lock()
	defer e.manMu.Unlock()
	e.man.Segments = append(e.man.Segments, ms)
	var err error
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		if err = writeManifest(e.fs, e.opts.Dir, e.man); err == nil {
			return nil
		}
		if attempt == 2 {
			break
		}
		e.health.manifestRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 4
	}
	e.health.manifestFailures.Add(1)
	e.degrade("manifest", err)
	return err
}

// groupSync is the SyncGroup background fsync loop: every interval, any
// shard log with unsynced records gets one fsync. A failed fsync degrades
// the engine immediately — the error used to stick silently to the wal and
// surface one lost batch later; now Health() and the ingest refusal carry
// it the moment it happens.
func (e *Engine) groupSync() {
	defer e.syncWG.Done()
	t := time.NewTicker(e.opts.GroupInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		}
		for i := range e.wals {
			w := e.wals[i].Load()
			if w == nil || !w.dirty() {
				continue
			}
			start := time.Now()
			err := w.syncTo(w.written.Load())
			e.met.fsyncLat.Since(start)
			if err != nil {
				if e.wals[i].Load() == w {
					e.health.fsyncFailures.Add(1)
					e.degrade("wal group fsync", err)
				}
			}
		}
	}
}

// DiskUsage reports the data directory's current WAL and segment byte
// totals (the measured disk cost next to the store's MemoryFootprint).
func (e *Engine) DiskUsage() (walBytes, segBytes int64, err error) {
	err = filepath.WalkDir(e.opts.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".wal":
			walBytes += info.Size()
		case ".seg":
			segBytes += info.Size()
		}
		return nil
	})
	return walBytes, segBytes, err
}
