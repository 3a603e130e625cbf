package query

import (
	"math"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
)

// Cold-read path: queries over blocks whose payloads were spilled to
// segment files and adopted back as mmapped regions must run through the
// same packed kernels with the same zero-allocation, lock-free
// properties as heap-resident sealed blocks — the BlockView contract does
// not care where the bytes live.

// coldFixture ingests enough regular data through a persistent engine to
// seal (and therefore spill) several blocks per meter, returning the engine
// plus an identically-fed in-memory store as the oracle.
func coldFixture(t *testing.T) (*storage.Engine, *server.Store, string) {
	t.Helper()
	dir := t.TempDir()
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: 4, Sync: storage.SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mem := server.NewStore(4)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, ing := range []server.Ingest{eng, mem} {
		for m := uint64(1); m <= 4; m++ {
			if err := ing.StartSession(m); err != nil {
				t.Fatal(err)
			}
			if _, err := ing.PushTableSeq(m, 1, table); err != nil {
				t.Fatal(err)
			}
			pts := make([]symbolic.SymbolPoint, 96)
			var ts int64
			for batch := 0; batch < 40; batch++ { // ~7.5 sealed blocks each
				for j := range pts {
					v := float64((int(m)*31 + batch*97 + j*13) % 4000)
					pts[j] = symbolic.SymbolPoint{T: ts, S: table.Encode(v)}
					ts += 900
				}
				if _, _, err := ing.AppendSeq(m, uint64(batch+2), pts); err != nil {
					t.Fatal(err)
				}
			}
			ing.EndSession(m)
		}
	}
	return eng, mem, dir
}

// TestColdQueryMatchesResident pins byte-identical results between the
// mmap-backed store and its in-memory twin across every aggregate, on
// ranges that hit summaries, edge kernels and the live tail.
func TestColdQueryMatchesResident(t *testing.T) {
	eng, mem, _ := coldFixture(t)
	cold, warm := New(eng.Store()), New(mem)
	windows := [][2]int64{
		{0, math.MaxInt64},
		{7 * 900, (3*server.BlockCap + 100) * 900},
		{(server.BlockCap + 13) * 900, (2*server.BlockCap - 9) * 900},
	}
	for m := uint64(1); m <= 4; m++ {
		for _, win := range windows {
			ca, _ := cold.Aggregate(m, win[0], win[1])
			wa, _ := warm.Aggregate(m, win[0], win[1])
			if ca.Count != wa.Count ||
				math.Float64bits(ca.Sum) != math.Float64bits(wa.Sum) ||
				math.Float64bits(ca.Min) != math.Float64bits(wa.Min) ||
				math.Float64bits(ca.Max) != math.Float64bits(wa.Max) {
				t.Fatalf("meter %d window %v: cold %+v, warm %+v", m, win, ca, wa)
			}
			cs, _ := cold.Sum(m, win[0], win[1])
			ws, _ := warm.Sum(m, win[0], win[1])
			if math.Float64bits(cs) != math.Float64bits(ws) {
				t.Fatalf("meter %d window %v: cold sum %v, warm %v", m, win, cs, ws)
			}
			var ch, wh Histogram
			if _, err := cold.HistogramInto(&ch, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.HistogramInto(&wh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			for s := range wh.Counts {
				if ch.Counts[s] != wh.Counts[s] {
					t.Fatalf("meter %d window %v symbol %d: cold %d, warm %d", m, win, s, ch.Counts[s], wh.Counts[s])
				}
			}
		}
	}
	caf := cold.FleetAggregate(0, math.MaxInt64)
	waf := warm.FleetAggregate(0, math.MaxInt64)
	if caf.Count != waf.Count || math.Float64bits(caf.Sum) != math.Float64bits(waf.Sum) {
		t.Fatalf("fleet: cold %+v, warm %+v", caf, waf)
	}
}

// TestColdQueryZeroAllocAndLockFree is the acceptance pin for the
// mmap-backed range path: a pruned aggregate over spilled blocks takes zero
// allocations and zero shard-lock acquisitions, exactly like the resident
// sealed path it replaced.
func TestColdQueryZeroAllocAndLockFree(t *testing.T) {
	eng, _, _ := coldFixture(t)
	st := eng.Store()
	e := New(st)
	m, ok := st.Meter(2)
	if !ok {
		t.Fatal("meter unknown")
	}
	if n := len(m.CollectRange(math.MinInt64, math.MaxInt64, nil, func(server.BlockView) {})); n < 3 {
		t.Fatalf("fixture sealed only %d blocks", n)
	}
	tailT, ok := m.LiveTailStart()
	if !ok {
		t.Fatal("no live tail")
	}
	const w = 900
	t0, t1 := int64(server.BlockCap+7)*w, int64(2*server.BlockCap+90)*w // cuts inside spilled blocks
	if t1 >= tailT {
		t.Fatalf("range end %d reaches tail start %d", t1, tailT)
	}
	before := st.QueryLockAcquisitions()
	coldRange := func() {
		if a, ok := e.Aggregate(2, t0, t1); !ok || a.Count == 0 {
			t.Fatal("bad cold aggregate")
		}
		if s, ok := e.Sum(2, t0, t1); !ok || s == 0 {
			t.Fatal("bad cold sum")
		}
	}
	if a := testing.AllocsPerRun(100, coldRange); a != 0 {
		t.Fatalf("mmap-backed range query allocates %.1f times per run, want 0", a)
	}
	var h Histogram
	coldHist := func() {
		if _, err := e.HistogramInto(&h, 2, t0, t1); err != nil {
			t.Fatal(err)
		}
	}
	coldHist()
	if a := testing.AllocsPerRun(100, coldHist); a != 0 {
		t.Fatalf("mmap-backed histogram allocates %.1f times per run, want 0", a)
	}
	if got := st.QueryLockAcquisitions(); got != before {
		t.Fatalf("cold sealed queries took %d shard locks, want 0", got-before)
	}
}

// TestColdQueryAfterRecovery runs the same pins over a store rebuilt by
// crash recovery, whose sealed payloads alias freshly-mapped finished
// segments rather than the writer's own mapping.
func TestColdQueryAfterRecovery(t *testing.T) {
	eng, mem, dir := coldFixture(t)
	if err := eng.Flush(); err != nil { // finish segments so recovery restores from footers
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := storage.Open(storage.Options{Dir: dir, Shards: 4, Sync: storage.SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	if re.Recovery().SegmentPoints == 0 {
		t.Fatal("recovery restored nothing from segments")
	}
	cold, warm := New(re.Store()), New(mem)
	for m := uint64(1); m <= 4; m++ {
		ca, _ := cold.Aggregate(m, 0, math.MaxInt64)
		wa, _ := warm.Aggregate(m, 0, math.MaxInt64)
		if ca.Count != wa.Count || math.Float64bits(ca.Sum) != math.Float64bits(wa.Sum) {
			t.Fatalf("meter %d: recovered %+v, oracle %+v", m, ca, wa)
		}
	}
	pin := func() {
		if a, ok := cold.Aggregate(3, int64(server.BlockCap+5)*900, int64(2*server.BlockCap)*900); !ok || a.Count == 0 {
			t.Fatal("bad recovered cold aggregate")
		}
	}
	if a := testing.AllocsPerRun(100, pin); a != 0 {
		t.Fatalf("recovered cold query allocates %.1f times per run, want 0", a)
	}
}
