// Chaos tests: scripted and randomized storage faults injected through the
// FS seam (internal/faultfs), checked against the degraded-mode contract —
// acked batches are always recoverable, unacked batches fail loudly, queries
// are never wrong, and the engine heals onto a fresh WAL generation when the
// directory recovers. External test package: faultfs imports storage, so
// these tests cannot live inside it.
package storage_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"symmeter/internal/faultfs"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
)

// chaosTable mirrors the in-package tests' shared k=16 table.
func chaosTable(t testing.TB) *symbolic.Table {
	t.Helper()
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// chaosBatch is the deterministic batch idx of a meter's stream: 96 points,
// 15-minute cadence, a stride break every 7th batch.
func chaosBatch(meterID uint64, idx int, table *symbolic.Table) []symbolic.SymbolPoint {
	base := int64(idx) * 96 * 900
	if idx%7 == 3 {
		base += 450
	}
	pts := make([]symbolic.SymbolPoint, 96)
	for j := range pts {
		v := float64((int(meterID)*31 + idx*97 + j*13) % 4000)
		pts[j] = symbolic.SymbolPoint{T: base + int64(j)*900, S: table.Encode(v)}
	}
	return pts
}

var chaosMeters = []uint64{1, 2, 17}

func chaosOpen(t testing.TB, dir string, fsys storage.FS, sync storage.SyncMode, probe time.Duration) *storage.Engine {
	t.Helper()
	eng, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, Sync: sync, SegmentBytes: 64 << 10,
		FS: fsys, ProbeInterval: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// startMeters opens a session and pushes the table for every meter (done on
// a healthy disk, before any fault schedule is armed).
func startMeters(t testing.TB, eng server.Ingest, table *symbolic.Table, meters []uint64) {
	t.Helper()
	for _, m := range meters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := storage.PushNext(eng, m, table); err != nil {
			t.Fatal(err)
		}
	}
}

// buildOracle replays exactly the acked batch indices into a plain in-memory
// store — the ground truth a durable engine must match.
func buildOracle(t testing.TB, table *symbolic.Table, meters []uint64, batches map[uint64][]int) *server.Store {
	t.Helper()
	st := server.NewStore(4)
	for _, m := range meters {
		if err := st.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := st.PushTable(m, table); err != nil {
			t.Fatal(err)
		}
		for _, idx := range batches[m] {
			if _, err := storage.AppendNext(st, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

var chaosWindows = [][2]int64{
	{0, math.MaxInt64},
	{5 * 900, 777 * 900},
	{100*900 + 1, 5000 * 900},
}

// meterAgrees reports bit-exact aggregate + histogram agreement for one
// meter over windows that cut blocks on both ends.
func meterAgrees(t testing.TB, got, want *server.Store, m uint64) bool {
	t.Helper()
	ge, we := query.New(got), query.New(want)
	for _, win := range chaosWindows {
		ga, gok := ge.Aggregate(m, win[0], win[1])
		wa, wok := we.Aggregate(m, win[0], win[1])
		if gok != wok || ga.Count != wa.Count ||
			math.Float64bits(ga.Sum) != math.Float64bits(wa.Sum) ||
			math.Float64bits(ga.Min) != math.Float64bits(wa.Min) ||
			math.Float64bits(ga.Max) != math.Float64bits(wa.Max) {
			return false
		}
		var gh, wh query.Histogram
		if _, err := ge.HistogramInto(&gh, m, win[0], win[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := we.HistogramInto(&wh, m, win[0], win[1]); err != nil {
			t.Fatal(err)
		}
		if gh.Level != wh.Level || len(gh.Counts) != len(wh.Counts) {
			return false
		}
		for s := range gh.Counts {
			if gh.Counts[s] != wh.Counts[s] {
				return false
			}
		}
	}
	return true
}

func requireStoresEqual(t *testing.T, got, want *server.Store, meters []uint64) {
	t.Helper()
	if g, w := got.TotalSymbols(), want.TotalSymbols(); g != w {
		t.Fatalf("TotalSymbols: got %d, want %d", g, w)
	}
	for _, m := range meters {
		if !meterAgrees(t, got, want, m) {
			t.Fatalf("meter %d: stores disagree", m)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradedWALWriteRefusesThenHeals is the headline degraded-mode round
// trip: a dying disk (every WAL write fails, probes fail too) flips the
// engine to Degraded — ingest refused with the typed error, queries still
// bit-exact — and when the disk comes back, the background probe rotates to
// a fresh WAL generation and durable ingest resumes, all of it recoverable
// across a crash.
func TestDegradedWALWriteRefusesThenHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := []uint64{1, 2}
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, 2*time.Millisecond)
	startMeters(t, eng, table, meters)

	acked := map[uint64][]int{}
	for idx := 0; idx < 10; idx++ {
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			acked[m] = append(acked[m], idx)
		}
	}

	// The disk dies: every WAL write fails, and the probe file cannot sync,
	// so the engine must stay degraded until the faults clear.
	ffs.SetFaults(
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", Sticky: true},
		faultfs.Fault{Op: faultfs.OpSync, Path: ".probe", Sticky: true},
	)
	if _, err := storage.AppendNext(eng, 1, chaosBatch(1, 10, table)); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append on dead disk: got %v, want server.ErrDegraded", err)
	}
	h := eng.Health()
	if h.State != storage.StateDegraded || h.WALWriteFailures == 0 {
		t.Fatalf("health after failed write: %+v", h)
	}
	if !strings.Contains(h.Reason, "wal append") {
		t.Fatalf("reason %q, want the wal append class", h.Reason)
	}
	// Every ingest surface refuses with the same typed error, up front.
	if _, err := storage.AppendNext(eng, 2, chaosBatch(2, 10, table)); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("second meter: %v", err)
	}
	if err := storage.PushNext(eng, 1, table); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("push table while degraded: %v", err)
	}
	if err := eng.StartSession(99); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("new session while degraded: %v", err)
	}
	// Queries keep serving exactly the acked data.
	requireStoresEqual(t, eng.Store(), buildOracle(t, table, meters, acked), meters)
	// Probes run and fail; the engine must not heal onto a dead disk.
	waitFor(t, 2*time.Second, "a failed probe", func() bool { return eng.Health().Probes > 0 })
	if st := eng.Health().State; st != storage.StateDegraded {
		t.Fatalf("state with probes failing: %v", st)
	}

	// The disk comes back: the probe heals the engine onto a fresh WAL
	// generation without any operator action.
	ffs.SetFaults()
	waitFor(t, 5*time.Second, "heal", func() bool { return eng.Health().State == storage.StateHealthy })
	h = eng.Health()
	if h.Heals == 0 || h.WALGen == 0 || h.Reason != "" {
		t.Fatalf("health after heal: %+v", h)
	}

	// Ingest resumes, including the very batch that was refused.
	for idx := 10; idx < 16; idx++ {
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatalf("append after heal (meter %d batch %d): %v", m, idx, err)
			}
			acked[m] = append(acked[m], idx)
		}
	}
	requireStoresEqual(t, eng.Store(), buildOracle(t, table, meters, acked), meters)

	// Crash and recover on the healthy disk: the replay spans both WAL
	// generations and restores every acked batch.
	eng.Abandon()
	re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
}

// TestFsyncFailureNeverAcks pins the fsyncgate rule under SyncAlways: a
// failed covering fsync fails the batch (never acked, never committed to the
// live store), degrades the engine, and is never retried — the record it
// covered may legitimately reappear after a crash as what it is, an
// unacknowledged write.
func TestFsyncFailureNeverAcks(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, ffs, storage.SyncAlways, time.Hour)
	startMeters(t, eng, table, []uint64{1})

	ffs.SetFaults(faultfs.Fault{Op: faultfs.OpSync, Path: ".wal", N: 1})
	_, err := storage.AppendNext(eng, 1, chaosBatch(1, 0, table))
	if !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("append with dying fsync: got %v, want the injected ErrIO", err)
	}
	if errors.Is(err, server.ErrDegraded) {
		t.Fatalf("the failing batch itself reports the raw cause, not the refusal: %v", err)
	}
	h := eng.Health()
	if h.State != storage.StateDegraded || h.FsyncFailures != 1 {
		t.Fatalf("health after fsync failure: %+v", h)
	}
	if !strings.Contains(h.Reason, "wal fsync") {
		t.Fatalf("reason %q, want the wal fsync class", h.Reason)
	}
	// Unacked means uncommitted: the live store never saw the batch.
	if n := eng.Store().TotalSymbols(); n != 0 {
		t.Fatalf("live store holds %d symbols from an unacked batch", n)
	}
	// Fsyncgate: no retry. Later appends are refused before touching the
	// log, so the sync count must not move.
	syncs := ffs.Counts()[faultfs.OpSync]
	if _, err := storage.AppendNext(eng, 1, chaosBatch(1, 0, table)); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append while degraded: %v", err)
	}
	if got := ffs.Counts()[faultfs.OpSync]; got != syncs {
		t.Fatalf("fsync retried after failure: %d syncs, had %d", got, syncs)
	}

	// The record's bytes did reach the file (only the fsync failed), so a
	// crash recovery replays it — the legitimate fate of an unacknowledged
	// write. It must replay exactly, not torn.
	eng.Abandon()
	ffs.SetFaults()
	re := chaosOpen(t, dir, ffs, storage.SyncAlways, time.Hour)
	defer re.Close()
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// TestSpillFailureFallsBackToHeap: segment I/O failure is not a seal failure
// and not a degrade — blocks stay heap-resident (the WAL covers them),
// ingest keeps acking, and recovery rebuilds everything.
func TestSpillFailureFallsBackToHeap(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := []uint64{1, 2}
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	startMeters(t, eng, table, meters)

	ffs.SetFaults(faultfs.Fault{Op: faultfs.OpOpen, Path: ".seg", Sticky: true})
	acked := map[uint64][]int{}
	for idx := 0; idx < 40; idx++ { // ~7 seals per meter
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatalf("append with dead segment dir (meter %d batch %d): %v", m, idx, err)
			}
			acked[m] = append(acked[m], idx)
		}
	}
	h := eng.Health()
	if h.State != storage.StateHealthy {
		t.Fatalf("spill failure degraded the engine: %+v", h)
	}
	if !h.SpillDisabled || h.SpillFallbacks == 0 {
		t.Fatalf("spill should be parked on the heap: %+v", h)
	}
	requireStoresEqual(t, eng.Store(), buildOracle(t, table, meters, acked), meters)

	// Crash: every heap-resident sealed block re-derives from the WAL.
	eng.Abandon()
	ffs.SetFaults()
	re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
}

// TestManifestFailureRetriesThenDegrades drives writeManifest through both
// injected failure shapes — rename EIO and ENOSPC on the temp file — and
// checks the satellite contract: retries with backoff, then degrade; the
// temp file is always cleaned up; the previous manifest still loads, so the
// next boot never comes up from a half-written manifest.
func TestManifestFailureRetriesThenDegrades(t *testing.T) {
	cases := []struct {
		name  string
		fault faultfs.Fault
	}{
		{"rename-eio", faultfs.Fault{Op: faultfs.OpRename, Path: "MANIFEST", Sticky: true}},
		{"write-enospc", faultfs.Fault{Op: faultfs.OpWrite, Path: "MANIFEST.json.tmp", Err: faultfs.ErrNoSpace, Sticky: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New()
			table := chaosTable(t)
			meters := []uint64{1, 2}
			eng := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
			startMeters(t, eng, table, meters)
			acked := map[uint64][]int{}
			for idx := 0; idx < 20; idx++ {
				for _, m := range meters {
					if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
						t.Fatal(err)
					}
					acked[m] = append(acked[m], idx)
				}
			}

			// Flush finishes the open segments, and registering them hits the
			// faulted manifest replacement: retries, then degrade.
			ffs.SetFaults(tc.fault)
			if err := eng.Flush(); err == nil {
				t.Fatal("Flush with a faulted manifest succeeded")
			}
			h := eng.Health()
			if h.State != storage.StateDegraded || h.ManifestFailures == 0 {
				t.Fatalf("health after manifest failure: %+v", h)
			}
			if h.ManifestRetries < 2 {
				t.Fatalf("manifest write gave up without retrying: %+v", h)
			}
			if !strings.Contains(h.Reason, "manifest") {
				t.Fatalf("reason %q, want the manifest class", h.Reason)
			}
			if _, err := storage.AppendNext(eng, 1, chaosBatch(1, 20, table)); !errors.Is(err, server.ErrDegraded) {
				t.Fatalf("append after manifest degrade: %v", err)
			}
			// Every failed replacement cleaned its temp file.
			if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json.tmp")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("temp manifest left behind: %v", err)
			}

			// The previous manifest is untouched and fully loadable: a crash
			// right now boots from it, with the WAL covering every acked
			// batch (the finished-but-unlisted segments are orphans).
			eng.Abandon()
			ffs.SetFaults()
			re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
			defer re.Close()
			requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
		})
	}
}

// TestOpenUnwindsCleanly: a recovery that fails midway must release every
// file handle and mapping it acquired — the faultfs balances prove it.
func TestOpenUnwindsCleanly(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := []uint64{1, 2}
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	startMeters(t, eng, table, meters)
	acked := map[uint64][]int{}
	for idx := 0; idx < 40; idx++ {
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			acked[m] = append(acked[m], idx)
		}
	}
	if err := eng.Flush(); err != nil { // manifest-listed segments for the mmap paths
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("clean lifecycle leaked: open balance %d, mmap balance %d", ob, mb)
	}
	haveMmap := ffs.Counts()[faultfs.OpMmap] > 0

	cases := []struct {
		name  string
		fault faultfs.Fault
		mmap  bool
	}{
		{"wal-read-fails", faultfs.Fault{Op: faultfs.OpMmap, Path: ".wal", N: 1}, false},
		{"wal-open-fails", faultfs.Fault{Op: faultfs.OpOpen, Path: "shard-", N: 2}, false},
		{"segment-open-fails", faultfs.Fault{Op: faultfs.OpOpen, Path: ".seg", N: 1}, false},
		{"segment-mmap-fails", faultfs.Fault{Op: faultfs.OpMmap, Path: ".seg", N: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mmap && !haveMmap {
				t.Skip("no mmap on this platform")
			}
			ffs.SetFaults(tc.fault)
			if _, err := storage.Open(storage.Options{
				Dir: dir, Shards: 4, SegmentBytes: 64 << 10, FS: ffs, ProbeInterval: time.Hour,
			}); !errors.Is(err, faultfs.ErrIO) {
				t.Fatalf("Open with injected fault: got %v, want ErrIO", err)
			}
			if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
				t.Fatalf("failed Open leaked: open balance %d, mmap balance %d", ob, mb)
			}
		})
	}

	// And the directory is still fully recoverable once the faults clear.
	ffs.SetFaults()
	re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("final lifecycle leaked: open balance %d, mmap balance %d", ob, mb)
	}
}

// TestOpenUnwindsCleanlyConcurrent is TestOpenUnwindsCleanly with every
// shard pipeline in flight at once: 16 shards on 16 workers, a fault scoped
// to one shard's files. Open must wait for the other 15 pipelines before it
// unwinds — a worker still holding a descriptor or a mapping would show in
// the balances — and with two shards failing it must report the
// lower-numbered shard's error whatever order the workers finished in.
func TestOpenUnwindsCleanlyConcurrent(t *testing.T) {
	const shards = 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	opts := storage.Options{Dir: dir, Shards: shards, SegmentBytes: 64 << 10, FS: ffs, ProbeInterval: time.Hour}
	eng, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	meters := make([]uint64, 96)
	for i := range meters {
		meters[i] = uint64(i + 1)
	}
	startMeters(t, eng, table, meters)
	acked := map[uint64][]int{}
	for idx := 0; idx < 12; idx++ {
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			acked[m] = append(acked[m], idx)
		}
	}
	if err := eng.Close(); err != nil { // finished segments: the mmap paths
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		for _, pat := range []string{"wal/shard-%04d.wal", "seg/%04d-*.seg"} {
			if got, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf(pat, i))); len(got) == 0 {
				t.Fatalf("shard %d has no %s: the fixture must load every pipeline", i, pat)
			}
		}
	}
	haveMmap := ffs.Counts()[faultfs.OpMmap] > 0

	wal := func(shard int, err error) faultfs.Fault {
		return faultfs.Fault{Op: faultfs.OpMmap, Path: fmt.Sprintf("shard-%04d.wal", shard), Err: err, Sticky: true}
	}
	seg := func(shard int, err error) faultfs.Fault {
		return faultfs.Fault{Op: faultfs.OpMmap, Path: fmt.Sprintf("%cseg%c%04d-", filepath.Separator, filepath.Separator, shard), Err: err, Sticky: true}
	}
	cases := []struct {
		name   string
		faults []faultfs.Fault
		want   error
		mmap   bool
	}{
		{"one-wal-read", []faultfs.Fault{wal(9, nil)}, faultfs.ErrIO, false},
		{"one-segment-mmap", []faultfs.Fault{seg(6, nil)}, faultfs.ErrIO, true},
		{"two-wal-reads-lower-wins", []faultfs.Fault{wal(12, faultfs.ErrNoSpace), wal(3, faultfs.ErrIO)}, faultfs.ErrIO, false},
		{"two-wal-reads-lower-wins-swapped", []faultfs.Fault{wal(3, faultfs.ErrNoSpace), wal(12, faultfs.ErrIO)}, faultfs.ErrNoSpace, false},
		{"segment-mmap-below-wal-read", []faultfs.Fault{wal(14, faultfs.ErrNoSpace), seg(2, faultfs.ErrIO)}, faultfs.ErrIO, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mmap && !haveMmap {
				t.Skip("no mmap on this platform")
			}
			for round := 0; round < 5; round++ { // different interleavings, same verdict
				ffs.SetFaults(tc.faults...)
				if _, err := storage.Open(opts); !errors.Is(err, tc.want) {
					t.Fatalf("round %d: Open returned %v, want %v", round, err, tc.want)
				}
				if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
					t.Fatalf("round %d: failed Open leaked: open balance %d, mmap balance %d", round, ob, mb)
				}
			}
		})
	}

	ffs.SetFaults()
	re, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("final lifecycle leaked: open balance %d, mmap balance %d", ob, mb)
	}
}

// TestFaultedRecoveryThenClean: a crash-shaped directory whose FIRST
// recovery attempt dies on an injected fault must fail cleanly (no leaks, no
// damage) and recover bit-exact on the next, healthy attempt.
func TestFaultedRecoveryThenClean(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := []uint64{1, 2}
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	startMeters(t, eng, table, meters)
	acked := map[uint64][]int{}
	for idx := 0; idx < 30; idx++ {
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			acked[m] = append(acked[m], idx)
		}
	}
	eng.Abandon() // crash shape: open segments without footers, WAL as written

	ffs.SetFaults(faultfs.Fault{Op: faultfs.OpMmap, Path: ".wal", N: 2})
	if _, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, SegmentBytes: 64 << 10, FS: ffs, ProbeInterval: time.Hour,
	}); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("faulted recovery: got %v, want ErrIO", err)
	}
	if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("faulted recovery leaked: open balance %d, mmap balance %d", ob, mb)
	}

	ffs.SetFaults()
	re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
}

// TestCleanOpenDoesNotCopyLog: a clean Open reads every WAL generation
// through a mapping — never a whole-file read of the log — and allocates less
// in total than the log holds, so restart cost carries no heap copy of the
// retained history.
func TestCleanOpenDoesNotCopyLog(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := make([]uint64, 16)
	for i := range meters {
		meters[i] = uint64(i + 1)
	}
	// Batches continue one another's stride — whole 512-point blocks, like a
	// day-batched fleet — so the restored chains are as compact as the
	// footers make them.
	const batches = 160
	want := server.NewStore(4)
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	for _, ing := range []server.Ingest{eng, want} {
		startMeters(t, ing, table, meters)
		for idx := 0; idx < batches; idx++ {
			for _, m := range meters {
				pts := chaosBatch(m, 0, table)
				for j := range pts {
					pts[j].T = int64(idx*96+j) * 900
				}
				if _, err := storage.AppendNext(ing, m, pts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var walBytes uint64
	for _, p := range logs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += uint64(st.Size())
	}

	// A whole-file read of any generation fails the Open outright.
	ffs.SetFaults(faultfs.Fault{Op: faultfs.OpReadFile, Path: ".wal", Sticky: true})
	reads := ffs.Counts()[faultfs.OpReadFile]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	re, err := storage.Open(storage.Options{Dir: dir, Shards: 4, SegmentBytes: 64 << 10, FS: ffs, ProbeInterval: time.Hour})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("clean Open read the log whole: %v", err)
	}
	defer re.Close()
	if got := ffs.Counts()[faultfs.OpReadFile] - reads; got != 1 {
		t.Fatalf("clean Open made %d whole-file reads, want 1 (the manifest)", got)
	}
	if rs := re.Recovery(); rs.SegmentPoints == 0 || rs.WALRecords == 0 {
		t.Fatalf("fixture must restore segments and scan the log: %+v", rs)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= walBytes {
		t.Fatalf("clean Open allocated %d bytes for a %d-byte log", alloc, walBytes)
	}
	requireStoresEqual(t, re.Store(), want, meters)
}

// TestSegmentDirSyncFailureKeepsSegmentUnlisted: finish makes a segment's
// directory entry durable before the manifest names it, so a failed fsync of
// seg/ fails finish and leaves the segment out of the manifest — an orphan
// the next recovery deletes, its blocks re-derived from the log.
func TestSegmentDirSyncFailureKeepsSegmentUnlisted(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := []uint64{1, 2}
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	startMeters(t, eng, table, meters)
	acked := map[uint64][]int{}
	for idx := 0; idx < 20; idx++ { // several sealed blocks in open segments
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			acked[m] = append(acked[m], idx)
		}
	}
	ffs.SetFaults(faultfs.Fault{Op: faultfs.OpSyncDir, Path: filepath.Join(dir, "seg"), Sticky: true})
	if err := eng.Flush(); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("Flush with seg/ unsyncable: got %v, want ErrIO", err)
	}
	finished, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(finished) == 0 {
		t.Fatalf("fixture finished no segment: %v %v", finished, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct{ Segments []struct{ File string } }
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 0 {
		t.Fatalf("manifest lists %v before their directory entries are durable", man.Segments)
	}

	ffs.SetFaults()
	eng.Abandon()
	re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	if rs := re.Recovery(); rs.Segments != 0 || rs.ReplayedPoints == 0 {
		t.Fatalf("unlisted segments must replay from the log: %+v", rs)
	}
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
}

// TestWALDirSyncFailureBlocksRotation: a heal activates a fresh WAL
// generation only once the new files' directory entries are durable — a
// failed fsync of wal/ keeps the engine degraded on the old generation, and
// the next probe heals it once the directory syncs again.
func TestWALDirSyncFailureBlocksRotation(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	meters := []uint64{1, 2}
	eng := chaosOpen(t, dir, ffs, storage.SyncOff, 2*time.Millisecond)
	defer eng.Abandon() // stops the probe if the test fails early
	startMeters(t, eng, table, meters)
	acked := map[uint64][]int{}
	for _, m := range meters {
		if _, err := storage.AppendNext(eng, m, chaosBatch(m, 0, table)); err != nil {
			t.Fatal(err)
		}
		acked[m] = append(acked[m], 0)
	}
	walDir := filepath.Join(dir, "wal")
	ffs.SetFaults(
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", N: 1},
		faultfs.Fault{Op: faultfs.OpSyncDir, Path: walDir, Sticky: true},
	)
	if _, err := storage.AppendNext(eng, 1, chaosBatch(1, 1, table)); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append on a failing log: got %v, want server.ErrDegraded", err)
	}
	waitFor(t, 5*time.Second, "a failed rotation", func() bool {
		return strings.Contains(eng.Health().Reason, "wal rotation")
	})
	// The probe keeps retrying, so the state may read Recovering; what must
	// not happen is an activated generation.
	if h := eng.Health(); h.State == storage.StateHealthy || h.WALGen != 0 || h.Heals != 0 {
		t.Fatalf("rotation activated without a durable wal/ entry: %+v", h)
	}

	// Once wal/ syncs again the heal lands on generation 1 — which also
	// proves every failed attempt removed its files (creation is O_EXCL).
	ffs.SetFaults()
	waitFor(t, 5*time.Second, "heal", func() bool { return eng.Health().State == storage.StateHealthy })
	if gen := eng.Health().WALGen; gen != 1 {
		t.Fatalf("healed onto generation %d, want 1", gen)
	}
	for _, m := range meters {
		if _, err := storage.AppendNext(eng, m, chaosBatch(m, 1, table)); err != nil {
			t.Fatal(err)
		}
		acked[m] = append(acked[m], 1)
	}
	eng.Abandon()
	re := chaosOpen(t, dir, ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	requireStoresEqual(t, re.Store(), buildOracle(t, table, meters, acked), meters)
}

// TestFailedOpenLeavesDirectoryUntouched: recovery reads and validates every
// shard before it changes anything, so an Open that fails — here on a byte
// flipped mid-log in one shard — deletes no orphan, truncates no torn tail
// and writes, renames or syncs nothing: every file keeps its bytes.
func TestFailedOpenLeavesDirectoryUntouched(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	meters := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	startMeters(t, eng, table, meters)
	for idx := 0; idx < 12; idx++ {
		for _, m := range meters {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Close(); err != nil { // format 3, manifest-listed segments
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal", "shard-*.wal"))
	if err != nil || len(logs) < 2 {
		t.Fatalf("want two shard logs, have %v (err %v)", logs, err)
	}

	// Four defects: a torn tail (half a record header) in one shard's log, a
	// flipped byte with intact records after it in another's, an unlisted
	// segment and a WAL generation above the manifest's.
	f, err := os.OpenFile(logs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logs[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	for path, data := range map[string][]byte{
		logs[1]: raw,
		filepath.Join(dir, "seg", "0003-000099.seg"):       []byte("no footer"),
		filepath.Join(dir, "wal", "shard-0000-000001.wal"): nil,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := storage.FileHashes(t, dir)

	ffs := faultfs.New()
	if _, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, SegmentBytes: 64 << 10, FS: ffs, ProbeInterval: time.Hour,
	}); !errors.Is(err, storage.ErrWALCorrupt) {
		t.Fatalf("Open over a corrupt log: got %v, want ErrWALCorrupt", err)
	}
	counts := ffs.Counts()
	for _, op := range []faultfs.Op{faultfs.OpRemove, faultfs.OpTruncate, faultfs.OpWrite, faultfs.OpWriteAt, faultfs.OpRename, faultfs.OpSyncDir} {
		if counts[op] != 0 {
			t.Errorf("failed Open ran %d %v operations", counts[op], op)
		}
	}
	if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("failed Open leaked: open balance %d, mmap balance %d", ob, mb)
	}
	after := storage.FileHashes(t, dir)
	for name, sum := range before {
		if got, ok := after[name]; !ok || got != sum {
			t.Errorf("failed Open changed or removed %s", name)
		}
	}
	if len(after) != len(before) {
		t.Errorf("failed Open left %d files, want %d", len(after), len(before))
	}
}

// TestFreshOpenSyncsWALDir: acknowledged batches land in the log generation
// a fresh directory's Open creates, so that Open makes wal/ durable and fails
// when it cannot — leaving no generation behind, so the retry creates and
// syncs again; a reopen creates no log and syncs no directory.
func TestFreshOpenSyncsWALDir(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ffs := faultfs.New(faultfs.Fault{Op: faultfs.OpSyncDir, Path: walDir})
	opts := storage.Options{Dir: dir, Shards: 4, SegmentBytes: 64 << 10, FS: ffs, ProbeInterval: time.Hour}
	if _, err := storage.Open(opts); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("fresh Open with wal/ unsyncable: got %v, want ErrIO", err)
	}
	if ob, mb := ffs.OpenBalance(), ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("failed Open leaked: open balance %d, mmap balance %d", ob, mb)
	}
	if logs, err := filepath.Glob(filepath.Join(walDir, "*.wal")); err != nil || len(logs) != 0 {
		t.Fatalf("failed Open left generations %v (err %v)", logs, err)
	}

	ffs.SetFaults()
	// The retry finds the manifest the failed Open wrote, so wal/ is the
	// only directory it can sync.
	syncs := ffs.Counts()[faultfs.OpSyncDir]
	eng, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ffs.Counts()[faultfs.OpSyncDir] - syncs; got != 1 {
		t.Fatalf("Open retried after a failed wal/ fsync synced %d directories, want 1", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	syncs = ffs.Counts()[faultfs.OpSyncDir]
	re, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := ffs.Counts()[faultfs.OpSyncDir] - syncs; got != 0 {
		t.Fatalf("reopen synced %d directories, want 0", got)
	}
}

// TestFormat1ManifestMigrates: a directory written by the pre-generation
// layout (manifest format 1, no wal_gen) opens cleanly, runs at generation
// 0, and is rewritten forward to the current format on the spot.
func TestFormat1ManifestMigrates(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"),
		[]byte(`{"format": 1, "shards": 4, "segments": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	if got := eng.Store().NumShards(); got != 4 {
		t.Fatalf("NumShards: got %d, want the format-1 manifest's 4", got)
	}
	if gen := eng.Health().WALGen; gen != 0 {
		t.Fatalf("WALGen after migration: %d, want 0", gen)
	}
	startMeters(t, eng, table, []uint64{1})
	if _, err := storage.AppendNext(eng, 1, chaosBatch(1, 0, table)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"format": 3`) {
		t.Fatalf("manifest not migrated to format 3:\n%s", raw)
	}
	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// mallocs mirrors testing.AllocsPerRun — one warm-up call, GOMAXPROCS(1) —
// but returns the total malloc count over the runs measured calls, so a
// zero pin is exact: AllocsPerRun's integer average hides up to runs-1.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	// Collect before the window opens: a cycle that ends inside it wakes
	// runtime background work (the unique map's post-GC cleanup, the
	// scavenger's timer) whose mallocs ReadMemStats would count as f's.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// measureAppendAllocs returns the mallocs of four non-sealing AppendSeq
// batches on an engine over fsys, after warming the WAL buffers and the
// tail block.
func measureAppendAllocs(t *testing.T, fsys storage.FS) uint64 {
	t.Helper()
	dir := t.TempDir()
	eng, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, Sync: storage.SyncOff, FS: fsys, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	table := chaosTable(t)
	startMeters(t, eng, table, []uint64{7})
	// Warm up exactly two block cycles (lcm(512, 96) = 1536 points), landing
	// the tail at a block boundary.
	for idx := 0; idx < 32; idx++ {
		if _, err := storage.AppendNext(eng, 7, chaosBatch(7, idx, table)); err != nil {
			t.Fatal(err)
		}
	}
	// Five more pre-built batches: the warm-up call plus four measured runs
	// fill positions 0..480 of the current block — no seal, no spill, the
	// pure WAL + tail hot path.
	batches := make([][]symbolic.SymbolPoint, 5)
	for i := range batches {
		batches[i] = chaosBatch(7, 32+i, table)
	}
	i, seq := 0, eng.LastSeq(7)
	return mallocs(4, func() {
		seq++
		if _, dup, err := eng.AppendSeq(7, seq, batches[i]); err != nil || dup {
			t.Fatalf("AppendSeq seq %d: dup=%v err=%v", seq, dup, err)
		}
		i++
	})
}

// TestAppendAllocsThroughSeam pins the FS seam's cost at zero: the durable
// append hot path allocates nothing through the real OsFS, and routing the
// same workload through faultfs (the worst-case seam user) adds nothing.
func TestAppendAllocsThroughSeam(t *testing.T) {
	osAllocs := measureAppendAllocs(t, nil) // nil = OsFS
	faultAllocs := measureAppendAllocs(t, faultfs.New())
	t.Logf("append mallocs over 4 runs: OsFS=%d faultfs=%d", osAllocs, faultAllocs)
	if osAllocs != 0 {
		t.Errorf("steady-state durable AppendSeq made %d mallocs over 4 runs through OsFS, want 0", osAllocs)
	}
	if faultAllocs > osAllocs {
		t.Errorf("the FS seam costs allocations: faultfs %d vs OsFS %d", faultAllocs, osAllocs)
	}
}

// TestPushTableSeqRefusalWritesNothing pins that a table push the sequence
// check turns away never reaches the log: a duplicate (seq at or below the
// mark) is acked and a gap is refused, both without one WAL write.
func TestPushTableSeqRefusalWritesNothing(t *testing.T) {
	ffs := faultfs.New()
	eng := chaosOpen(t, t.TempDir(), ffs, storage.SyncOff, time.Hour)
	defer eng.Close()
	table := chaosTable(t)
	startMeters(t, eng, table, []uint64{1})
	mark := eng.LastSeq(1)
	writes := ffs.Counts()[faultfs.OpWrite]
	if dup, err := eng.PushTableSeq(1, mark, table); !dup || err != nil {
		t.Fatalf("duplicate push: dup=%v err=%v, want an acked duplicate", dup, err)
	}
	if dup, err := eng.PushTableSeq(1, mark+2, table); dup || !errors.Is(err, server.ErrSeqGap) {
		t.Fatalf("gap push: dup=%v err=%v, want ErrSeqGap", dup, err)
	}
	if got := ffs.Counts()[faultfs.OpWrite] - writes; got != 0 {
		t.Fatalf("refused table pushes issued %d WAL writes, want 0", got)
	}
	if got := eng.LastSeq(1); got != mark {
		t.Fatalf("mark moved from %d to %d", mark, got)
	}
}

// TestGroupSyncOnlyUnderSyncGroup pins which mode runs the background
// fsync: under SyncGroup an acked batch is followed by an fsync within the
// group cadence, and under SyncOff no fsync happens at all.
func TestGroupSyncOnlyUnderSyncGroup(t *testing.T) {
	table := chaosTable(t)
	for _, mode := range []storage.SyncMode{storage.SyncGroup, storage.SyncOff} {
		ffs := faultfs.New()
		eng := chaosOpen(t, t.TempDir(), ffs, mode, time.Hour)
		startMeters(t, eng, table, []uint64{1})
		syncs := ffs.Counts()[faultfs.OpSync]
		if _, err := storage.AppendNext(eng, 1, chaosBatch(1, 0, table)); err != nil {
			t.Fatal(err)
		}
		if mode == storage.SyncGroup {
			deadline := time.Now().Add(2500 * storage.GroupInterval)
			for ffs.Counts()[faultfs.OpSync] == syncs {
				if time.Now().After(deadline) {
					t.Fatalf("SyncGroup: no fsync within %v of an acked batch", 2500*storage.GroupInterval)
				}
				time.Sleep(storage.GroupInterval / 2)
			}
		} else {
			time.Sleep(25 * storage.GroupInterval)
			if got := ffs.Counts()[faultfs.OpSync] - syncs; got != 0 {
				t.Fatalf("SyncOff: %d fsyncs within %v of an acked batch, want 0", got, 25*storage.GroupInterval)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// --- randomized chaos ------------------------------------------------------

// runChaos drives an engine through a fault schedule and checks the three
// invariants that define "survive a dying disk without lying":
//
//  1. the live store always equals exactly the acked batches;
//  2. a typed ErrDegraded refusal means nothing was stored (safe retry); any
//     other error leaves at most that one batch ambiguous and stops the
//     meter (its stream position is unknown — the client must reconcile);
//  3. after a crash and a clean recovery, every meter's data equals its
//     acked batches, or acked plus its single ambiguous batch.
//
// Halfway through, the fault schedule is disarmed: the probe must heal the
// engine and ingest must resume unattended for every non-stopped meter.
func runChaos(t *testing.T, sync storage.SyncMode, faults []faultfs.Fault, rounds int) {
	t.Helper()
	dir := t.TempDir()
	ffs := faultfs.New()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, ffs, sync, 2*time.Millisecond)
	startMeters(t, eng, table, chaosMeters)
	ffs.SetFaults(faults...)

	acked := map[uint64][]int{}
	ambiguous := map[uint64]int{}
	next := map[uint64]int{}
	stopped := map[uint64]bool{}
	for r := 0; r < rounds; r++ {
		for _, m := range chaosMeters {
			if stopped[m] {
				continue
			}
			idx := next[m]
			_, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table))
			switch {
			case err == nil:
				acked[m] = append(acked[m], idx)
				next[m] = idx + 1
			case errors.Is(err, server.ErrDegraded):
				// Refused up front: nothing stored, retry the same batch later.
			default:
				// Raw I/O failure: the batch's fate is ambiguous (the record
				// may or may not have reached the log). At-most-once is the
				// client's discipline — stop this meter's stream.
				ambiguous[m] = idx
				stopped[m] = true
			}
		}
		if r == rounds/2 {
			ffs.SetFaults() // the disk comes back mid-run
		}
	}

	// The probe must heal the engine and ingest must resume by itself.
	for _, m := range chaosMeters {
		if stopped[m] {
			continue
		}
		idx := next[m]
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := storage.AppendNext(eng, m, chaosBatch(m, idx, table)); err == nil {
				acked[m] = append(acked[m], idx)
				next[m] = idx + 1
				break
			} else if !errors.Is(err, server.ErrDegraded) {
				t.Fatalf("meter %d: non-degraded error after faults cleared: %v", m, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("meter %d: ingest did not resume after faults cleared (health %+v)", m, eng.Health())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Invariant 1: the live store is exactly the acked set.
	oracle := buildOracle(t, table, chaosMeters, acked)
	requireStoresEqual(t, eng.Store(), oracle, chaosMeters)

	// Invariant 3: crash, recover clean, compare per meter with the
	// two-variant rule.
	eng.Abandon()
	ffs.SetFaults()
	re := chaosOpen(t, dir, ffs, sync, time.Hour)
	defer re.Close()
	for _, m := range chaosMeters {
		if meterAgrees(t, re.Store(), oracle, m) {
			continue
		}
		idx, isAmb := ambiguous[m]
		if !isAmb {
			t.Fatalf("meter %d: recovered data disagrees with the acked batches and no write was ambiguous", m)
		}
		withAmb := buildOracle(t, table, []uint64{m},
			map[uint64][]int{m: append(append([]int(nil), acked[m]...), idx)})
		if !meterAgrees(t, re.Store(), withAmb, m) {
			t.Fatalf("meter %d: recovered data matches neither the acked batches nor acked+ambiguous", m)
		}
	}
}

// TestChaosSchedules runs the deterministic fault matrix.
func TestChaosSchedules(t *testing.T) {
	cases := []struct {
		name   string
		sync   storage.SyncMode
		faults []faultfs.Fault
	}{
		{"eio-5th-wal-write", storage.SyncOff,
			[]faultfs.Fault{{Op: faultfs.OpWrite, Path: ".wal", N: 5}}},
		{"sticky-wal-write", storage.SyncOff,
			[]faultfs.Fault{{Op: faultfs.OpWrite, Path: ".wal", N: 3, Sticky: true}}},
		{"enospc-short-write", storage.SyncOff,
			[]faultfs.Fault{{Op: faultfs.OpWrite, Path: ".wal", N: 4, Err: faultfs.ErrNoSpace, Short: true}}},
		{"fsync-dies-once", storage.SyncAlways,
			[]faultfs.Fault{{Op: faultfs.OpSync, Path: ".wal", N: 6}}},
		{"sticky-fsync", storage.SyncAlways,
			[]faultfs.Fault{{Op: faultfs.OpSync, Path: ".wal", N: 2, Sticky: true}}},
		{"segment-writes-die", storage.SyncOff,
			[]faultfs.Fault{{Op: faultfs.OpWriteAt, Path: ".seg", Sticky: true}}},
		{"manifest-rename-dies", storage.SyncOff,
			[]faultfs.Fault{{Op: faultfs.OpRename, Path: "MANIFEST", Sticky: true}}},
		{"group-fsync-dies", storage.SyncGroup,
			[]faultfs.Fault{{Op: faultfs.OpSync, Path: ".wal", N: 2, Sticky: true}}},
		{"carnage", storage.SyncAlways, []faultfs.Fault{
			{Op: faultfs.OpWrite, Path: ".wal", N: 7, Sticky: true},
			{Op: faultfs.OpSync, Path: ".wal", N: 9},
			{Op: faultfs.OpWriteAt, Path: ".seg", Sticky: true},
			{Op: faultfs.OpRename, Path: "MANIFEST", N: 1, Sticky: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runChaos(t, tc.sync, tc.faults, 40)
		})
	}
}

// FuzzFaultSchedule decodes arbitrary bytes into a fault schedule (4 bytes
// per fault: op, N, flags, error class) and runs the chaos invariants under
// it. Anything the fuzzer finds — a wrong query, a lost acked batch, a
// recovery failure on an intact directory — is a real durability bug.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0})                         // sticky wal write EIO
	f.Add([]byte{2, 2, 0, 1})                         // one-shot wal fsync ENOSPC
	f.Add([]byte{1, 1, 1, 0, 3, 1, 1, 0})             // seg writes + manifest rename, both sticky
	f.Add([]byte{0, 4, 3, 1, 2, 6, 0, 0, 4, 1, 1, 0}) // short wal write + fsync + seg open
	f.Add([]byte{5, 2, 0, 0, 6, 1, 1, 1})             // truncate + remove faults
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16 {
			data = data[:16]
		}
		ops := []faultfs.Op{faultfs.OpWrite, faultfs.OpWriteAt, faultfs.OpSync,
			faultfs.OpRename, faultfs.OpOpen, faultfs.OpTruncate, faultfs.OpRemove}
		paths := map[faultfs.Op]string{
			faultfs.OpWrite: ".wal", faultfs.OpWriteAt: ".seg", faultfs.OpSync: ".wal",
			faultfs.OpRename: "MANIFEST", faultfs.OpOpen: ".seg",
			faultfs.OpTruncate: ".wal", faultfs.OpRemove: ".seg",
		}
		var faults []faultfs.Fault
		for i := 0; i+3 < len(data); i += 4 {
			op := ops[int(data[i])%len(ops)]
			ft := faultfs.Fault{
				Op:     op,
				Path:   paths[op],
				N:      int(data[i+1])%12 + 1,
				Sticky: data[i+2]&1 != 0,
				Short:  data[i+2]&2 != 0 && op == faultfs.OpWrite,
			}
			if data[i+3]&1 != 0 {
				ft.Err = faultfs.ErrNoSpace
			}
			faults = append(faults, ft)
		}
		modes := []storage.SyncMode{storage.SyncOff, storage.SyncGroup, storage.SyncAlways}
		runChaos(t, modes[len(data)%3], faults, 24)
	})
}
