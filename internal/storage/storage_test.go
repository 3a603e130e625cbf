package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// testTable learns the same k=16 table every storage test shares.
func testTable(t testing.TB) *symbolic.Table {
	t.Helper()
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	return mustTable(vals)
}

// mustTable is testTable without a testing.TB, for the re-exec'd kill child.
func mustTable(vals []float64) *symbolic.Table {
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		panic(err)
	}
	return table
}

// genBatch builds the deterministic batch `idx` of a meter's stream: 96
// regular 15-minute points (with a stream gap every 7th batch, so block
// chains include stride breaks).
func genBatch(meterID uint64, idx int, table *symbolic.Table) []symbolic.SymbolPoint {
	base := int64(idx) * 96 * 900
	if idx%7 == 3 {
		base += 450 // gap: breaks the arithmetic progression between batches
	}
	pts := make([]symbolic.SymbolPoint, 96)
	for j := range pts {
		v := float64((int(meterID)*31 + idx*97 + j*13) % 4000)
		pts[j] = symbolic.SymbolPoint{T: base + int64(j)*900, S: table.Encode(v)}
	}
	return pts
}

// applyBatches drives ing with a table and nBatches per meter, each under
// the meter's next seq, interleaved across meters like concurrent sessions
// would.
func applyBatches(t testing.TB, ing server.Ingest, table *symbolic.Table, meters []uint64, nBatches int) {
	t.Helper()
	for _, m := range meters {
		if err := ing.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := PushNext(ing, m, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < nBatches; idx++ {
		for _, m := range meters {
			if _, err := AppendNext(ing, m, genBatch(m, idx, table)); err != nil {
				t.Fatalf("append meter %d batch %d: %v", m, idx, err)
			}
		}
	}
	for _, m := range meters {
		ing.EndSession(m)
	}
}

// oracleStore builds the plain in-memory store for the same batch sequence.
func oracleStore(t testing.TB, table *symbolic.Table, meters []uint64, nBatches int) *server.Store {
	t.Helper()
	st := server.NewStore(4)
	applyBatches(t, st, table, meters, nBatches)
	return st
}

// compareStores asserts bit-exact aggregate equivalence (Count, Sum, Min,
// Max, Histogram) between two stores for every meter over several windows,
// including ones that cut blocks on both ends.
func compareStores(t *testing.T, got, want *server.Store, meters []uint64) {
	t.Helper()
	if g, w := got.TotalSymbols(), want.TotalSymbols(); g != w {
		t.Fatalf("TotalSymbols: got %d, want %d", g, w)
	}
	ge, we := query.New(got), query.New(want)
	windows := [][2]int64{
		{0, math.MaxInt64},
		{5 * 900, 777 * 900},
		{100*900 + 1, 5000 * 900},
		{3 * 96 * 900, 9 * 96 * 900},
	}
	for _, m := range meters {
		for _, win := range windows {
			ga, gok := ge.Aggregate(m, win[0], win[1])
			wa, wok := we.Aggregate(m, win[0], win[1])
			if gok != wok {
				t.Fatalf("meter %d window %v: exists %v vs %v", m, win, gok, wok)
			}
			if ga.Count != wa.Count ||
				math.Float64bits(ga.Sum) != math.Float64bits(wa.Sum) ||
				math.Float64bits(ga.Min) != math.Float64bits(wa.Min) ||
				math.Float64bits(ga.Max) != math.Float64bits(wa.Max) {
				t.Fatalf("meter %d window %v: got %+v, want %+v", m, win, ga, wa)
			}
			var gh, wh query.Histogram
			if _, err := ge.HistogramInto(&gh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := we.HistogramInto(&wh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if gh.Level != wh.Level || len(gh.Counts) != len(wh.Counts) {
				t.Fatalf("meter %d window %v: histogram shape %d/%d vs %d/%d", m, win, gh.Level, len(gh.Counts), wh.Level, len(wh.Counts))
			}
			for s := range gh.Counts {
				if gh.Counts[s] != wh.Counts[s] {
					t.Fatalf("meter %d window %v symbol %d: %d vs %d", m, win, s, gh.Counts[s], wh.Counts[s])
				}
			}
		}
	}
}

var testMeters = []uint64{1, 2, 17, 1017}

// openTest opens an engine over dir with small segments so tests exercise
// segment rollover, finish and multi-segment recovery.
func openTest(t testing.TB, dir string, mode SyncMode) *Engine {
	t.Helper()
	eng, err := Open(Options{Dir: dir, Shards: 4, Sync: mode, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRecoverAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 40 // ~3840 points/meter: several sealed blocks + tail
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, nBatches)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, SyncOff)
	defer re.Close()
	st := re.Recovery()
	if st.SegmentPoints == 0 {
		t.Errorf("clean close should restore sealed data from segments, got %+v", st)
	}
	if st.SkippedPoints != st.SegmentPoints {
		t.Errorf("replay skipped %d points, segments restored %d", st.SkippedPoints, st.SegmentPoints)
	}
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, nBatches), testMeters)
}

func TestRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 40
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, nBatches)
	// No Close, no Flush: the WAL holds everything via write(2), the open
	// segments have no footer and must be discarded + re-derived.
	re := openTest(t, dir, SyncOff)
	defer re.Close()
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, nBatches), testMeters)
	if re.Recovery().ReplayedPoints == 0 {
		t.Error("crash recovery should replay points from the WAL")
	}
}

func TestRecoverAfterFlushThenMoreWrites(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, 25)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keep writing after the checkpoint: a second epoch plus more batches.
	table2 := testTable(t)
	for _, m := range testMeters {
		if err := PushNext(eng, m, table2); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 25; idx < 40; idx++ {
		for _, m := range testMeters {
			if _, err := AppendNext(eng, m, genBatch(m, idx, table2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash (no close).
	re := openTest(t, dir, SyncOff)
	defer re.Close()

	want := server.NewStore(4)
	for _, m := range testMeters {
		if err := want.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := want.PushTable(m, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < 25; idx++ {
		for _, m := range testMeters {
			if _, err := AppendNext(want, m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range testMeters {
		if err := want.PushTable(m, table2); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 25; idx < 40; idx++ {
		for _, m := range testMeters {
			if _, err := AppendNext(want, m, genBatch(m, idx, table2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareStores(t, re.Store(), want, testMeters)
}

func TestRecoverTwiceAccumulates(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, 20)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Second generation: recover, write more, close.
	eng2 := openTest(t, dir, SyncOff)
	for idx := 20; idx < 40; idx++ {
		for _, m := range testMeters {
			if _, err := AppendNext(eng2, m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, SyncOff)
	defer re.Close()
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, 40), testMeters)
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			table := testTable(t)
			eng := openTest(t, dir, mode)
			applyBatches(t, eng, table, testMeters[:2], 10)
			if mode == SyncGroup {
				time.Sleep(10 * time.Millisecond) // let the background syncer run once
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			re := openTest(t, dir, mode)
			defer re.Close()
			compareStores(t, re.Store(), oracleStore(t, table, testMeters[:2], 10), testMeters[:2])
		})
	}
}

func TestSpillBoundsResidentMemory(t *testing.T) {
	if !canMmap {
		t.Skip("no mmap on this platform: sealed payloads stay heap-resident")
	}
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 160 // ~15k points per meter
	eng := openTest(t, dir, SyncOff)
	defer eng.Close()
	applyBatches(t, eng, table, testMeters, nBatches)
	mem := oracleStore(t, table, testMeters, nBatches)

	persistBytes, pts := eng.Store().MemoryFootprint()
	memBytes, _ := mem.MemoryFootprint()
	if pts == 0 {
		t.Fatal("no points")
	}
	// The spilled store must not pay heap for sealed payloads: at level 4
	// they are 0.5 B/point, the dominant term of the resident footprint.
	if persistBytes >= memBytes {
		t.Errorf("spilled store resident %d B ≥ in-memory %d B for %d points", persistBytes, memBytes, pts)
	}
	walBytes, segBytes, err := eng.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	if walBytes == 0 || segBytes == 0 {
		t.Errorf("disk usage wal=%d seg=%d, want both > 0", walBytes, segBytes)
	}
}

// TestRestoredFootprintPerBlock pins what a restored store keeps per sealed
// block: its 72-byte struct, its 2-byte histogram lanes and its 8-byte
// directory slot — the payload stays in the mapped segment. The fixture is
// full blocks plus a one-point tail the log replays, which adds its own
// struct, its lanes (the restore's headroom) and a heap payload.
func TestRestoredFootprintPerBlock(t *testing.T) {
	if !canMmap {
		t.Skip("no mmap on this platform: sealed payloads stay heap-resident")
	}
	dir := t.TempDir()
	table := testTable(t)
	const sealed = 6 // full blocks per meter
	eng := openTest(t, dir, SyncOff)
	for _, m := range testMeters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := PushNext(eng, m, table); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= sealed*server.BlockCap; {
			n := min(96, sealed*server.BlockCap+1-i)
			pts := make([]symbolic.SymbolPoint, n)
			for j := range pts {
				pts[j] = symbolic.SymbolPoint{T: int64(i+j) * 900, S: table.Encode(float64((i + j) * 13 % 4000))}
			}
			if _, err := AppendNext(eng, m, pts); err != nil {
				t.Fatal(err)
			}
			i += n
		}
		eng.EndSession(m)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = openTest(t, dir, SyncOff)
	defer eng.Close()
	if rs := eng.Recovery(); rs.SegmentBlocks != sealed*len(testMeters) {
		t.Fatalf("restored %d segment blocks, want %d full ones", rs.SegmentBlocks, sealed*len(testMeters))
	}
	k, level := table.K(), table.Level()
	perSealed := int64(72 + 2*k + 8)
	perTail := int64(72 + 2*k + (server.BlockCap*level+7)/8)
	bytes, points := eng.Store().MemoryFootprint()
	if points != int64((sealed*server.BlockCap+1)*len(testMeters)) {
		t.Fatalf("restored %d points", points)
	}
	if limit := int64(len(testMeters)) * (sealed*perSealed + perTail); bytes > limit {
		t.Fatalf("restored store keeps %d B, want ≤ %d B (%d B per sealed block, %d B per tail)", bytes, limit, perSealed, perTail)
	}
}

func TestRefusesNewerFormat(t *testing.T) {
	dir := t.TempDir()
	eng := openTest(t, dir, SyncOff)
	eng.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"format": 99, "shards": 4, "segments": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 4}); !errors.Is(err, ErrFormatTooNew) {
		t.Fatalf("Open with newer format: got %v, want ErrFormatTooNew", err)
	}
}

func TestManifestShardCountWins(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng, err := Open(Options{Dir: dir, Shards: 8, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, eng, table, testMeters, 10)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen asking for a different shard count: the directory's wins, and
	// the data comes back intact.
	re, err := Open(Options{Dir: dir, Shards: 3, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Store().NumShards(); got != 8 {
		t.Errorf("NumShards after reopen: got %d, want the directory's 8", got)
	}
	if got, want := re.Store().TotalSymbols(), len(testMeters)*10*96; got != want {
		t.Errorf("TotalSymbols: got %d, want %d", got, want)
	}
}
