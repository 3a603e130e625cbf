package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"symmeter/internal/metrics"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// copyDir clones a data directory so two recoveries can run on identical
// bytes.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// equivMeters spreads over all 8 shards of the equivalence fixture; the odd
// ones ingest sequenced, the even ones through the legacy calls.
var equivMeters = func() []uint64 {
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(3*i + 1)
	}
	return ids
}()

// buildEquivDir writes a directory holding everything the shard pipelines
// branch on: two WAL generations, manifest-listed segments whose coverage
// ends inside a batch (512-point blocks under 96-point batches), a table
// change, and an uncovered tail that seals more blocks during replay.
func buildEquivDir(t testing.TB, clean bool) string {
	t.Helper()
	dir := t.TempDir()
	table := testTable(t)
	eng, err := Open(Options{Dir: dir, Shards: 8, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	seq := make(map[uint64]uint64)
	pushTable := func(m uint64) {
		var err error
		if m%2 == 1 {
			seq[m]++
			_, err = eng.PushTableSeq(m, seq[m], table)
		} else {
			err = eng.PushTableLegacy(m, table)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appendRange := func(from, to int) {
		for idx := from; idx < to; idx++ {
			for _, m := range equivMeters {
				var err error
				if m%2 == 1 {
					seq[m]++
					_, _, err = eng.AppendSeq(m, seq[m], genBatch(m, idx, table))
				} else {
					_, err = eng.AppendLegacy(m, genBatch(m, idx, table))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, m := range equivMeters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		pushTable(m)
	}
	// genBatch breaks the stride at batches 3 and 4, sealing blocks of 288
	// and 96 points; the next block fills to 512 inside batch 9. Flushing
	// here leaves segments covering 896 points — 9⅓ batches — per meter.
	appendRange(0, 10)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.rotateWALs(); err != nil { // generation 1, as a heal would
		t.Fatal(err)
	}
	appendRange(10, 20)
	for _, m := range equivMeters[:len(equivMeters)/2] {
		pushTable(m) // second epoch for half the meters, after the covered prefix
	}
	appendRange(20, 31)
	requireOneMark(t, eng)
	if clean {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		eng.Abandon()
	}
	return dir
}

// requireOneMark: the engine's high-water mark and its store's are one and
// the same for every fixture meter — the store owns it, and the engine only
// reads it.
func requireOneMark(t testing.TB, eng *Engine) {
	t.Helper()
	for _, m := range equivMeters {
		if s, e := eng.Store().LastSeq(m), eng.LastSeq(m); s != e {
			t.Fatalf("meter %d: store LastSeq %d, engine LastSeq %d", m, s, e)
		}
	}
}

// blockImage is one CollectRange view reduced to what must come back
// bit-identical.
type blockImage struct {
	FirstT, Stride int64
	N, Epoch       int
	Payload        []byte
	Hist           []uint16
	Sum, Min, Max  uint64 // float summaries as IEEE bits
}

func meterImage(t testing.TB, st *server.Store, m uint64) []blockImage {
	t.Helper()
	h, ok := st.Meter(m)
	if !ok {
		t.Fatalf("meter %d missing", m)
	}
	image := func(v server.BlockView) blockImage {
		return blockImage{
			FirstT: v.FirstT, Stride: v.Stride, N: v.N, Epoch: v.Epoch,
			Payload: bytes.Clone(v.Payload[:(v.N*v.Level+7)/8]),
			Hist:    slices.Clone(v.Hist),
			Sum:     math.Float64bits(v.Sum), Min: math.Float64bits(v.MinV), Max: math.Float64bits(v.MaxV),
		}
	}
	var tail []blockImage
	views := h.CollectRange(math.MinInt64, math.MaxInt64, nil, func(v server.BlockView) {
		tail = append(tail, image(v))
	})
	var out []blockImage
	for _, v := range views {
		out = append(out, image(v))
	}
	return append(out, tail...)
}

// openAt recovers dir with the worker pool sized by procs.
func openAt(t testing.TB, dir string, procs int) *Engine {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng, err := Open(Options{Dir: dir, Shards: 8, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatalf("Open at GOMAXPROCS=%d: %v", procs, err)
	}
	return eng
}

// TestRecoverySerialEqualsParallel: one worker and four workers must rebuild
// the same store from the same bytes — same stats, same sequence marks (read
// through the engine and through its store alike, live and recovered), and
// bit-identical block chains — for crash-shaped and clean directories.
func TestRecoverySerialEqualsParallel(t *testing.T) {
	for _, shape := range []struct {
		name  string
		clean bool
	}{{"crash", false}, {"clean", true}} {
		t.Run(shape.name, func(t *testing.T) {
			dirA := buildEquivDir(t, shape.clean)
			dirB := copyDir(t, dirA)
			serial := openAt(t, dirA, 1)
			defer serial.Close()
			parallel := openAt(t, dirB, 4)
			defer parallel.Close()

			requireOneMark(t, serial)
			requireOneMark(t, parallel)
			counts := func(rs RecoveryStats) RecoveryStats {
				rs.Duration, rs.SegmentRestore, rs.WALParse, rs.Replay = 0, 0, 0, 0
				return rs
			}
			sr, pr := counts(serial.Recovery()), counts(parallel.Recovery())
			if sr != pr {
				t.Fatalf("RecoveryStats differ:\n serial   %+v\n parallel %+v", sr, pr)
			}
			// The fixture must really exercise every branch of the pipeline.
			if sr.Segments == 0 || sr.SkippedPoints == 0 || sr.ReplayedPoints == 0 || sr.Meters != len(equivMeters) {
				t.Fatalf("fixture too thin: %+v", sr)
			}
			if sr.SkippedPoints%96 == 0 {
				t.Fatalf("no batch straddles the covered boundary: skipped %d", sr.SkippedPoints)
			}
			if got, err := filepath.Glob(filepath.Join(dirA, "wal", "shard-0000*.wal")); err != nil || len(got) != 2 {
				t.Fatalf("want two WAL generations for shard 0, have %v (err %v)", got, err)
			}
			for _, m := range equivMeters {
				if s, p := serial.LastSeq(m), parallel.LastSeq(m); s != p || (m%2 == 1) != (s > 0) {
					t.Fatalf("meter %d LastSeq: serial %d, parallel %d", m, s, p)
				}
				si, pi := meterImage(t, serial.Store(), m), meterImage(t, parallel.Store(), m)
				if !reflect.DeepEqual(si, pi) {
					t.Fatalf("meter %d: block chains differ between 1 and 4 workers", m)
				}
				n := 0
				for _, b := range si {
					n += b.N
				}
				if n != 31*96 {
					t.Fatalf("meter %d recovered %d points, want %d", m, n, 31*96)
				}
			}
		})
	}
}

// TestRecoveredEqualsLiveBitExact: replaying WAL records straight from their
// packed bytes rebuilds the store the live path built from points — block for
// block, payload byte for payload byte, float summary bit for bit — at every
// level of the fixed stream, through kind-0 and kind-1 records, with the
// segment-covered prefix ending inside a batch so the replay starts mid-record
// at odd symbol offsets, after a crash and after a clean close.
func TestRecoveredEqualsLiveBitExact(t *testing.T) {
	for _, clean := range []bool{false, true} {
		dir := t.TempDir()
		opts := Options{Dir: dir, Shards: 2, Sync: SyncOff, SegmentBytes: 64 << 10}
		eng, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		writeFixedStream(t, eng, func() {
			if err := eng.Flush(); err != nil { // manifest segments ending mid-batch
				t.Fatal(err)
			}
		})
		live := make(map[uint64][]blockImage)
		seqs := make(map[uint64]uint64)
		for _, m := range fixedStreamMeters {
			live[m], seqs[m] = meterImage(t, eng.Store(), m), eng.LastSeq(m)
		}
		if clean {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			eng.Abandon()
		}
		re, err := Open(opts)
		if err != nil {
			t.Fatalf("clean=%v: %v", clean, err)
		}
		rs := re.Recovery()
		if rs.SkippedPoints == 0 || rs.ReplayedPoints == 0 {
			t.Fatalf("clean=%v: fixture skipped %d and replayed %d points", clean, rs.SkippedPoints, rs.ReplayedPoints)
		}
		for _, m := range fixedStreamMeters {
			if got := re.LastSeq(m); got != seqs[m] {
				t.Fatalf("clean=%v meter %d: LastSeq %d, want %d", clean, m, got, seqs[m])
			}
			got := meterImage(t, re.Store(), m)
			if len(got) != len(live[m]) {
				t.Fatalf("clean=%v meter %d: %d blocks, want %d", clean, m, len(got), len(live[m]))
			}
			for i := range got {
				g, w := got[i], live[m][i]
				// A restored underfull block keeps the footer's histogram where the
				// live seal dropped it; compare histograms only where both have one.
				if g.Hist == nil || w.Hist == nil {
					g.Hist, w.Hist = nil, nil
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("clean=%v meter %d block %d:\n got %+v\nwant %+v", clean, m, i, g, w)
				}
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// coveredLogDir builds a cleanly closed single-shard directory whose log sits
// almost wholly under manifest-listed segments: two meters of 10 batches in
// the unsequenced records applyRecords decodes, the first 9⅓ of each covered
// (see buildEquivDir), so the last batch straddles the boundary. It returns
// the directory, its log bytes and the scanned records.
func coveredLogDir(t testing.TB) (dir string, raw []byte, recs []walRecord) {
	t.Helper()
	dir = t.TempDir()
	table := testTable(t)
	eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testMeters[:2] {
		if err := errors.Join(eng.StartSession(m), eng.PushTableLegacy(m, table)); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < 10; idx++ {
		for _, m := range testMeters[:2] {
			if _, err := eng.AppendLegacy(m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(dir, "wal", "shard-0000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := parseWAL(raw)
	if err != nil || torn {
		t.Fatalf("fixture log must scan clean: torn=%v err=%v", torn, err)
	}
	return dir, raw, recs
}

// withLog clones dir and replaces its log with walBytes.
func withLog(t testing.TB, dir string, walBytes []byte) string {
	t.Helper()
	out := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(out, "wal", "shard-0000.wal"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// restamp rewrites record rec's body through edit and re-frames it with a
// valid length and CRC, so only the content checks stand between the damage
// and the store. The edited body may change length.
func restamp(raw []byte, recs []walRecord, rec int, edit func(body []byte) []byte) []byte {
	start := int(recordEnd(recs, rec))
	body := edit(bytes.Clone(raw[start+walHeaderLen : recs[rec].end]))
	out := bytes.Clone(raw[:start])
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = binary.BigEndian.AppendUint32(out, ^uint32(len(body)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, crcC))
	out = append(out, body...)
	return append(out, raw[recs[rec].end:]...)
}

// TestSkippedBatchStillValidated: replay consumes a segment-covered batch on
// its header alone, so every way the full decode used to reject such a
// record must still fail recovery loudly — never a silent skip.
func TestSkippedBatchStillValidated(t *testing.T) {
	dir, raw, recs := coveredLogDir(t)
	// The first batch record: covered by the segments of its meter.
	victim := slices.IndexFunc(recs, func(r walRecord) bool { return r.typ == recBatch })
	if victim < 0 {
		t.Fatal("fixture has no batch record")
	}
	re, err := Open(Options{Dir: copyDir(t, dir), Shards: 1, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if rs := re.Recovery(); rs.SkippedPoints < 96 {
		t.Fatalf("fixture's first batch is not segment-covered: %+v", rs)
	}
	re.Close()

	// Body offsets: type(1) | meterID(8) epoch(4) level(1) kind(1) count(4).
	cases := []struct {
		name string
		edit func(body []byte) []byte
	}{
		{"level 0", func(b []byte) []byte { b[13] = 0; return b }},
		{"level above MaxLevel", func(b []byte) []byte { b[13] = symbolic.MaxLevel + 1; return b }},
		{"timestamp kind 2", func(b []byte) []byte { b[14] = 2; return b }},
		{"count larger than the payload", func(b []byte) []byte { binary.BigEndian.PutUint32(b[15:], 97); return b }},
		{"payload longer than the count", func(b []byte) []byte { return append(b, 0) }},
		{"count 0", func(b []byte) []byte { binary.BigEndian.PutUint32(b[15:], 0); return b[:1+batchHeaderLen+16] }},
		{"epoch ahead of the log position", func(b []byte) []byte { binary.BigEndian.PutUint32(b[9:], 1); return b }},
		{"truncated below the fixed header", func(b []byte) []byte { return b[:1+batchHeaderLen-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := restamp(raw, recs, victim, tc.edit)
			if got, _, torn, err := parseWAL(mut); err != nil || torn || len(got) != len(recs) {
				t.Fatalf("restamped log must still frame clean: %d records torn=%v err=%v", len(got), torn, err)
			}
			_, err := Open(Options{Dir: withLog(t, dir, mut), Shards: 1, Sync: SyncOff})
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("Open returned %v, want ErrWALCorrupt", err)
			}
		})
	}
}

// TestBatchLevelMismatchFailsScan: a batch record at a level its epoch's
// table does not have is corruption whether the segments cover it whole (the
// scan consumes it on its header) or not (the straddling last batch, which
// apply would commit) — and the scan finds it before anything changes, so
// the unlisted segment beside it survives the failed Open.
func TestBatchLevelMismatchFailsScan(t *testing.T) {
	dir, raw, recs := coveredLogDir(t)
	level := testTable(t).Level()
	first := slices.IndexFunc(recs, func(r walRecord) bool { return r.typ == recBatch })
	last := len(recs) - 1
	if first < 0 || recs[last].typ != recBatch {
		t.Fatal("fixture must start and end its batches inside the log")
	}
	for name, victim := range map[string]int{"covered": first, "straddling": last} {
		t.Run(name, func(t *testing.T) {
			mut := restamp(raw, recs, victim, func(b []byte) []byte {
				h, err := parseBatchHeader(b[1:])
				if err != nil {
					t.Fatal(err)
				}
				b[13] = byte(level - 1)
				return b[:1+batchHeaderLen+h.tsBytes()+(h.count*(level-1)+7)/8]
			})
			d := withLog(t, dir, mut)
			orphan := filepath.Join(d, "seg", "0000-000099.seg")
			if err := os.WriteFile(orphan, []byte("no footer"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{Dir: d, Shards: 1, Sync: SyncOff}); !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("Open returned %v, want ErrWALCorrupt", err)
			}
			if _, err := os.Stat(orphan); err != nil {
				t.Fatalf("failed Open removed the unlisted segment: %v", err)
			}
		})
	}
}

// TestFooterRoomRunningTotal: the footer the segment writer encodes as blocks
// seal must be exactly the entries' sizes after every seal, across rollovers
// and mixed histogram widths, and every finished segment must fit its
// preallocation.
func TestFooterRoomRunningTotal(t *testing.T) {
	dir := t.TempDir()
	const segCap = 64 << 10
	eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff, SegmentBytes: segCap})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sw := eng.segs[0]
	rollovers := 0
	want := 0 // footer bytes of the blocks sealed into the open segment
	for i := 0; i < 600; i++ {
		level := []int{2, 4, 8, 12}[i%4]
		blk := server.SealedBlock{
			Level: level, N: 512, FirstT: int64(i) * 512, Stride: 1,
			Payload: make([]byte, 512*level/8),
		}
		if level <= 8 {
			blk.Hist = make([]uint16, 1<<level)
		}
		seq := sw.seq
		if _, err := sw.SealedBlock(uint64(i%3), blk); err != nil {
			t.Fatal(err)
		}
		if sw.seq != seq && seq > 0 {
			// Rolled over: the segment just finished must fit its capacity.
			rollovers++
			st, err := os.Stat(filepath.Join(dir, "seg", segName(0, seq-1)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() > segCap {
				t.Fatalf("segment %d finished at %d bytes, past its %d-byte preallocation", seq-1, st.Size(), segCap)
			}
		}
		if sw.seq != seq {
			want = 0 // this block opened a new segment
		}
		want += segBlockMetaLen + 4*len(blk.Hist)
		if len(sw.footer) != want {
			t.Fatalf("after seal %d: footer holds %d bytes, entries need %d", i, len(sw.footer), want)
		}
	}
	if rollovers < 3 {
		t.Fatalf("only %d rollovers: the fixture never refills a segment", rollovers)
	}
	path := sw.path
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > segCap {
		t.Fatalf("final segment finished at %d bytes, past its %d-byte preallocation", st.Size(), segCap)
	}
	restore := func() (map[uint64]*meterReplay, []byte) {
		sf, err := openSegment(OsFS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		meters := make(map[uint64]*meterReplay)
		if _, _, err := restoreSegments([]segFooter{sf}, func(id uint64) *meterReplay {
			if meters[id] == nil {
				meters[id] = new(meterReplay)
			}
			return meters[id]
		}); err != nil {
			t.Fatal(err)
		}
		return meters, sf.mapping
	}
	meters, mapping := restore()
	defer OsFS{}.Munmap(mapping)
	var blocks []server.SealedBlock
	for _, mr := range meters {
		blocks = append(blocks, mr.blocks...)
	}
	if len(blocks) == 0 {
		t.Fatal("final segment read back empty")
	}
	// The histograms come back carved from one exactly-sized slab in spill
	// (here: firstT) order: back to back, each capped at its own lanes, and
	// reading the segment allocates per segment, not per block.
	slices.SortFunc(blocks, func(a, b server.SealedBlock) int { return cmp.Compare(a.FirstT, b.FirstT) })
	var prev []uint16
	withHist := 0
	for i, blk := range blocks {
		h := blk.Hist
		if blk.Level > 8 {
			if h != nil {
				t.Fatalf("block %d: level %d carries a histogram", i, blk.Level)
			}
			continue
		}
		withHist++
		if len(h) != 1<<blk.Level || cap(h) != len(h) {
			t.Fatalf("block %d: histogram len %d cap %d at level %d", i, len(h), cap(h), blk.Level)
		}
		if prev != nil && unsafe.Pointer(&h[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), 2*len(prev)) {
			t.Fatalf("block %d: histogram does not follow the previous one in the slab", i)
		}
		prev = h
	}
	allocs := testing.AllocsPerRun(3, func() {
		_, m := restore()
		OsFS{}.Munmap(m)
	})
	if withHist < 20 || allocs > float64(withHist)/2 {
		t.Fatalf("restoring a segment allocates %.0f times for %d histogram blocks", allocs, withHist)
	}
}

// TestRecoveryMetricsMatchStats: the recovery gauges are the same numbers
// Recovery() reports.
func TestRecoveryMetricsMatchStats(t *testing.T) {
	dir := buildEquivDir(t, true)
	reg := metrics.New()
	eng, err := Open(Options{Dir: dir, Shards: 8, Sync: SyncOff, SegmentBytes: 64 << 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rs := eng.Recovery()
	if rs.Duration <= 0 || rs.SegmentRestore <= 0 || rs.WALParse <= 0 || rs.Replay <= 0 {
		t.Fatalf("recovery timings not recorded: %+v", rs)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"symmeter_storage_recovery_seconds":                                rs.Duration.Seconds(),
		"symmeter_storage_recovery_replayed_points":                        float64(rs.ReplayedPoints),
		"symmeter_storage_recovery_skipped_points":                         float64(rs.SkippedPoints),
		`symmeter_storage_recovery_phase_seconds{phase="segment_restore"}`: rs.SegmentRestore.Seconds(),
		`symmeter_storage_recovery_phase_seconds{phase="wal_parse"}`:       rs.WALParse.Seconds(),
		`symmeter_storage_recovery_phase_seconds{phase="replay"}`:          rs.Replay.Seconds(),
	} {
		line := name + " " + strconv.FormatFloat(want, 'g', -1, 64) + "\n"
		if !strings.Contains(buf.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// appendBatches appends batches [from, to) of every meter, under each
// meter's next sequence numbers.
func appendBatches(t *testing.T, eng *Engine, table *symbolic.Table, meters []uint64, from, to int) {
	t.Helper()
	for idx := from; idx < to; idx++ {
		for _, m := range meters {
			if _, err := AppendNext(eng, m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoverZeroLengthGeneration: a generation nothing was written to — zero
// bytes, which cannot be mapped — is an empty stretch of the log between its
// neighbours, after a clean close and after a crash.
func TestRecoverZeroLengthGeneration(t *testing.T) {
	for _, clean := range []bool{true, false} {
		dir := t.TempDir()
		table := testTable(t)
		eng := openTest(t, dir, SyncOff)
		applyBatches(t, eng, table, testMeters, 12)
		for range 2 {
			if err := eng.rotateWALs(); err != nil {
				t.Fatal(err)
			}
		}
		appendBatches(t, eng, table, testMeters, 12, 20)
		if clean {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			eng.Abandon()
		}
		if st, err := os.Stat(eng.walGenPath(0, 1)); err != nil || st.Size() != 0 {
			t.Fatalf("clean=%v: generation 1 must exist and be empty: %v", clean, err)
		}
		re := openTest(t, dir, SyncOff)
		if rs := re.Recovery(); rs.TornTails != 0 || rs.ReplayedPoints == 0 {
			t.Fatalf("clean=%v: %+v", clean, rs)
		}
		compareStores(t, re.Store(), oracleStore(t, table, testMeters, 20), testMeters)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverTornOnlyGeneration: a current generation holding nothing but
// the first half of a record — a crash inside its very first write — is
// truncated to empty, recovers the log before it, and takes appends again.
func TestRecoverTornOnlyGeneration(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, 12)
	if err := eng.rotateWALs(); err != nil {
		t.Fatal(err)
	}
	shard := eng.store.ShardFor(testMeters[0])
	gen0, gen1 := eng.walGenPath(shard, 0), eng.walGenPath(shard, 1)
	eng.Abandon()
	raw, err := os.ReadFile(gen0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := parseWAL(raw)
	if err != nil || len(recs) == 0 {
		t.Fatalf("generation 0: %d records, err %v", len(recs), err)
	}
	if err := os.WriteFile(gen1, raw[:recs[0].end/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, SyncOff)
	if rs := re.Recovery(); rs.TornTails != 1 {
		t.Fatalf("want the one torn generation truncated: %+v", rs)
	}
	if st, err := os.Stat(gen1); err != nil || st.Size() != 0 {
		t.Fatalf("torn generation not truncated to empty: %v", err)
	}
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, 12), testMeters)
	appendBatches(t, re, table, testMeters, 12, 16)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again := openTest(t, dir, SyncOff)
	defer again.Close()
	compareStores(t, again.Store(), oracleStore(t, table, testMeters, 16), testMeters)
}

// TestRecoverUncoveredMeter: a meter none of whose points reached a segment
// — it started after the others' chains were finished and never sealed a
// block — replays wholly from the apply list, table push included, beside
// meters whose logs the segments mostly cover.
func TestRecoverUncoveredMeter(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	covered, late := testMeters[:3], testMeters[3]
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, covered, 20)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, eng, table, []uint64{late}, 3) // 288 points: no block seals
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, SyncOff)
	defer re.Close()
	rs := re.Recovery()
	if rs.SegmentPoints == 0 || rs.ReplayedPoints != int64(3*96)+(int64(len(covered)*20*96)-rs.SegmentPoints) {
		t.Fatalf("the late meter must replay whole beside the covered ones: %+v", rs)
	}
	if got := re.LastSeq(late); got != 4 {
		t.Fatalf("late meter LastSeq %d, want 4 (table + 3 batches)", got)
	}
	want := oracleStore(t, table, covered, 20)
	applyBatches(t, want, table, []uint64{late}, 3)
	compareStores(t, re.Store(), want, testMeters)
}

// TestRecoverTableChangeAfterLastSegment: a batch replays under the epoch it
// was logged with, not under the meter's first table. Past the last listed
// segment every meter switches to a table with other representatives — the
// odd meters at another level too — and keeps writing. A crash recovery must
// rebuild the live chains block for block (boundaries, epochs, Sum bits),
// and so must a second Open over the segments that replay spilled.
func TestRecoverTableChangeAfterLastSegment(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i*104729%5000) + 0.5
	}
	next := map[bool]*symbolic.Table{}
	for odd, k := range map[bool]int{true: 8, false: 16} {
		var err error
		if next[odd], err = symbolic.Learn(symbolic.MethodMedian, vals, k); err != nil {
			t.Fatal(err)
		}
	}
	if next[true].Level() == table.Level() || slices.Equal(next[false].ReconstructionValues(), table.ReconstructionValues()) {
		t.Fatal("second tables must differ from the first in level and in representatives")
	}

	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, 25)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, m := range testMeters {
		if err := PushNext(eng, m, next[m%2 == 1]); err != nil {
			t.Fatal(err)
		}
		for idx := 25; idx < 40; idx++ {
			if _, err := AppendNext(eng, m, genBatch(m, idx, next[m%2 == 1])); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := make(map[uint64][]blockImage)
	seqs := make(map[uint64]uint64)
	for _, m := range testMeters {
		live[m], seqs[m] = meterImage(t, eng.Store(), m), eng.LastSeq(m)
		if last := live[m][len(live[m])-1]; last.Epoch != 1 {
			t.Fatalf("meter %d: live tail at epoch %d, want 1", m, last.Epoch)
		}
	}
	eng.Abandon()

	requireLive := func(what string, re *Engine) {
		t.Helper()
		for _, m := range testMeters {
			if got := re.LastSeq(m); got != seqs[m] {
				t.Fatalf("%s meter %d: LastSeq %d, want %d", what, m, got, seqs[m])
			}
			got := meterImage(t, re.Store(), m)
			if len(got) != len(live[m]) {
				t.Fatalf("%s meter %d: %d blocks, want %d", what, m, len(got), len(live[m]))
			}
			for i := range got {
				g, w := got[i], live[m][i]
				// A restored underfull block keeps its footer histogram where
				// the live seal dropped it.
				if g.Hist == nil || w.Hist == nil {
					g.Hist, w.Hist = nil, nil
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s meter %d block %d:\n got %+v\nwant %+v", what, m, i, g, w)
				}
			}
		}
	}
	re := openTest(t, dir, SyncOff)
	if rs := re.Recovery(); rs.SkippedPoints == 0 || rs.ReplayedPoints < int64(len(testMeters)*15*96) {
		t.Fatalf("fixture must replay every post-change batch past covered ones: %+v", rs)
	}
	requireLive("crash", re)
	segs := re.Recovery().Segments
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again := openTest(t, dir, SyncOff)
	defer again.Close()
	if rs := again.Recovery(); rs.Segments <= segs {
		t.Fatalf("replay spilled no segment: %d segments before, %d after", segs, rs.Segments)
	}
	requireLive("respilled", again)
}
