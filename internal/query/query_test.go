package query

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// randTable builds a deterministic random table at the given level with
// default (bin-center) representatives, which are monotone in the symbol
// index — the property Min/Max-from-symbol-summaries relies on.
// appendNext commits pts as the meter's next sequenced batch, as a session
// would.
func appendNext(st *server.Store, meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	n, _, err := st.AppendSeq(meterID, st.LastSeq(meterID)+1, pts)
	return n, err
}

func randTable(t testing.TB, rng *rand.Rand, level int) *symbolic.Table {
	t.Helper()
	k := 1 << uint(level)
	seps := make([]float64, k-1)
	for i := range seps {
		seps[i] = rng.Float64() * 1000
	}
	sort.Float64s(seps)
	table, err := symbolic.NewTable(k, seps, -50, 1100)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// seedMeter streams n points into the store for one meter: window-strided
// timestamps with occasional gaps, random symbols, optional table re-pushes
// (epoch changes) mid-stream. Returns the last timestamp used.
func seedMeter(t testing.TB, st *server.Store, rng *rand.Rand, meterID uint64, table *symbolic.Table, n int, gapPct, epochEvery int) int64 {
	t.Helper()
	if err := st.StartSession(meterID); err != nil {
		t.Fatal(err)
	}
	defer st.EndSession(meterID)
	if err := st.PushTable(meterID, table); err != nil {
		t.Fatal(err)
	}
	level := table.Level()
	k := table.K()
	const window = 900
	var ts int64
	sent := 0
	for sent < n {
		batch := 1 + rng.Intn(96)
		if batch > n-sent {
			batch = n - sent
		}
		pts := make([]symbolic.SymbolPoint, batch)
		for i := range pts {
			pts[i] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol(rng.Intn(k), level)}
			ts += window
			if gapPct > 0 && rng.Intn(100) < gapPct {
				ts += window * int64(1+rng.Intn(3)) // missing windows
			}
		}
		if _, err := appendNext(st, meterID, pts); err != nil {
			t.Fatal(err)
		}
		sent += batch
		if epochEvery > 0 && sent < n && sent%epochEvery < batch {
			// Re-learned table mid-stream: same level, new separators.
			if err := st.PushTable(meterID, randTable(t, rng, level)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ts
}

// oracleAgg is the naive decode-then-aggregate reference: reconstruct the
// full stream via Snapshot, filter by time, aggregate point by point.
type oracleAgg struct {
	count uint64
	sum   float64
	min   float64
	max   float64
	hist  []uint64
}

func oracle(st server.MeterState, t0, t1 int64, k int) oracleAgg {
	o := oracleAgg{hist: make([]uint64, k)}
	for _, p := range st.Points {
		if p.T < t0 || p.T >= t1 {
			continue
		}
		if o.count == 0 || p.V < o.min {
			o.min = p.V
		}
		if o.count == 0 || p.V > o.max {
			o.max = p.V
		}
		o.count++
		o.sum += p.V
		o.hist[p.S.Index()]++
	}
	return o
}

func checkAgainstOracle(t *testing.T, e *Engine, st *server.Store, meterID uint64, k int, t0, t1 int64) {
	t.Helper()
	snap, ok := st.Snapshot(meterID)
	if !ok {
		t.Fatal("meter vanished")
	}
	o := oracle(snap, t0, t1, k)

	a, ok := e.Aggregate(meterID, t0, t1)
	if !ok {
		t.Fatal("Aggregate: meter unknown")
	}
	if a.Count != o.count {
		t.Fatalf("[%d,%d) Count = %d, oracle %d", t0, t1, a.Count, o.count)
	}
	if relDiff(a.Sum, o.sum) > 1e-9 {
		t.Fatalf("[%d,%d) Sum = %v, oracle %v", t0, t1, a.Sum, o.sum)
	}
	if o.count > 0 && (a.Min != o.min || a.Max != o.max) {
		t.Fatalf("[%d,%d) Min/Max = %v/%v, oracle %v/%v", t0, t1, a.Min, a.Max, o.min, o.max)
	}
	if n, _ := e.Count(meterID, t0, t1); n != o.count {
		t.Fatalf("[%d,%d) Count query = %d, oracle %d", t0, t1, n, o.count)
	}
	m := a.Mean()
	if o.count == 0 {
		if !math.IsNaN(m) {
			t.Fatalf("[%d,%d) Mean of empty range = %v, want NaN", t0, t1, m)
		}
	} else if relDiff(m, o.sum/float64(o.count)) > 1e-9 {
		t.Fatalf("[%d,%d) Mean = %v, oracle %v", t0, t1, m, o.sum/float64(o.count))
	}
	if k <= 1<<12 { // the finest level Histogram answers
		var h Histogram
		if _, err := e.HistogramInto(&h, meterID, t0, t1); err != nil {
			t.Fatalf("[%d,%d) Histogram: %v", t0, t1, err)
		}
		if o.count == 0 {
			if len(h.Counts) != 0 {
				t.Fatalf("[%d,%d) empty-range histogram has %d bins", t0, t1, len(h.Counts))
			}
		} else {
			for s := range o.hist {
				if h.Counts[s] != o.hist[s] {
					t.Fatalf("[%d,%d) hist[%d] = %d, oracle %d", t0, t1, s, h.Counts[s], o.hist[s])
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(b))
}

// liveTailStart returns the first timestamp of the meter's live tail, read
// through CollectRange's tail callback; ok is false when it has none.
func liveTailStart(m server.Meter) (tf int64, ok bool) {
	m.CollectRange(math.MinInt64, math.MaxInt64, nil, func(v server.BlockView) { tf, ok = v.FirstT, true })
	return tf, ok
}

// TestQueryMatchesOracle sweeps levels and range shapes deterministically:
// empty ranges, single-point ranges, block-boundary straddles, full cover.
func TestQueryMatchesOracle(t *testing.T) {
	for _, level := range []int{1, 2, 3, 4, 8, 10} {
		rng := rand.New(rand.NewSource(int64(100 + level)))
		st := server.NewStore(4)
		table := randTable(t, rng, level)
		last := seedMeter(t, st, rng, 9, table, 1500, 10, 400)
		e := New(st)
		const w = 900
		ranges := [][2]int64{
			{0, last + w},           // everything
			{0, 0},                  // empty
			{500, 100},              // inverted
			{0, w},                  // first point only
			{last - w, last + w},    // tail
			{512 * w, 513 * w},      // around the first block boundary
			{300 * w, 700 * w},      // straddles a block
			{-5000, 50},             // before the stream
			{last + w, last + 9000}, // after the stream
		}
		for i := 0; i < 25; i++ {
			a := rng.Int63n(last + 2*w)
			b := rng.Int63n(last + 2*w)
			ranges = append(ranges, [2]int64{a, b})
		}
		for _, r := range ranges {
			checkAgainstOracle(t, e, st, 9, table.K(), r[0], r[1])
		}
	}
}

// TestFleetMatchesPerMeter pins the sharded fan-out: fleet aggregates must
// equal the merge of every meter's individual aggregate.
func TestFleetMatchesPerMeter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := server.NewStore(8)
	const meters = 37 // not a multiple of the shard count
	var tables []*symbolic.Table
	for m := 1; m <= meters; m++ {
		table := randTable(t, rng, 4)
		tables = append(tables, table)
		seedMeter(t, st, rng, uint64(m), table, 300+rng.Intn(600), 5, 0)
	}
	e := New(st)
	t0, t1 := int64(100*900), int64(600*900)

	var want Agg
	var wantHist []uint64
	for m := 1; m <= meters; m++ {
		a, ok := e.Aggregate(uint64(m), t0, t1)
		if !ok {
			t.Fatalf("meter %d unknown", m)
		}
		want.Merge(a)
		var h Histogram
		if _, err := e.HistogramInto(&h, uint64(m), t0, t1); err != nil {
			t.Fatal(err)
		}
		if wantHist == nil {
			wantHist = make([]uint64, 16)
		}
		for s, c := range h.Counts {
			wantHist[s] += c
		}
	}

	got := e.FleetAggregate(t0, t1)
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("fleet = %+v, merged per-meter = %+v", got, want)
	}
	if relDiff(got.Sum, want.Sum) > 1e-9 {
		t.Fatalf("fleet sum = %v, merged %v", got.Sum, want.Sum)
	}
	fh, err := e.FleetHistogram(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	for s := range wantHist {
		if fh.Counts[s] != wantHist[s] {
			t.Fatalf("fleet hist[%d] = %d, want %d", s, fh.Counts[s], wantHist[s])
		}
	}
}

func TestUnknownMeter(t *testing.T) {
	e := New(server.NewStore(2))
	if _, ok := e.Aggregate(404, 0, 1000); ok {
		t.Fatal("Aggregate of unknown meter reported ok")
	}
}

// TestMixedLevelHistogram: meters with different alphabet sizes cannot be
// merged into one fleet histogram.
func TestMixedLevelHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := server.NewStore(2)
	seedMeter(t, st, rng, 1, randTable(t, rng, 4), 100, 0, 0)
	seedMeter(t, st, rng, 2, randTable(t, rng, 3), 100, 0, 0)
	e := New(st)
	if _, err := e.FleetHistogram(0, 1<<40); !errors.Is(err, ErrMixedLevels) {
		t.Fatalf("FleetHistogram error = %v, want ErrMixedLevels", err)
	}
	// The non-histogram aggregates still work across mixed levels.
	a := e.FleetAggregate(0, 1<<40)
	if a.Count != 200 {
		t.Fatalf("fleet count = %d, want 200", a.Count)
	}
}

// TestNonMonotoneRepresentatives pins Min/Max correctness for tables whose
// symbol→value mapping is NOT monotone in the symbol index (a wire table's
// representatives are arbitrary: UnmarshalTable does not, and cannot,
// enforce bin ordering). Extremes are tracked in the value domain at ingest
// and compared in the value domain at query time, so these must still
// match the oracle exactly — randTable can never generate this shape, which
// is why it gets a dedicated test instead of relying on the fuzzer.
func TestNonMonotoneRepresentatives(t *testing.T) {
	table, err := symbolic.NewTable(4, []float64{10, 20, 30}, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Symbol 0 reconstructs to the largest value, symbol 3 to the smallest.
	// A table is immutable, so this one is built from bytes: the
	// representatives are the last four float64s of its wire form.
	b := symbolic.MarshalTable(table)
	for i, r := range []float64{100, 7, 55, 1} {
		binary.LittleEndian.PutUint64(b[len(b)-8*(4-i):], math.Float64bits(r))
	}
	if table, err = symbolic.UnmarshalTable(b); err != nil {
		t.Fatal(err)
	}
	st := server.NewStore(2)
	if err := st.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := st.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	// Enough points to seal a block plus a partial tail, cycling all symbols.
	n := server.BlockCap + 37
	pts := make([]symbolic.SymbolPoint, n)
	for i := range pts {
		pts[i] = symbolic.SymbolPoint{T: int64(i) * 900, S: symbolic.NewSymbol(i%4, 2)}
	}
	if _, err := appendNext(st, 1, pts); err != nil {
		t.Fatal(err)
	}
	e := New(st)
	// Full cover (summary path), and a range cutting inside both blocks
	// (kernel path).
	for _, r := range [][2]int64{{0, int64(n) * 900}, {3 * 900, int64(n-3)*900 - 450}} {
		checkAgainstOracle(t, e, st, 1, 4, r[0], r[1])
	}
	a, _ := e.Aggregate(1, 0, int64(n)*900)
	if a.Min != 1 || a.Max != 100 {
		t.Fatalf("non-monotone table: Min/Max = %v/%v, want 1/100", a.Min, a.Max)
	}
}

// TestExtremeTimestampQueries pins the engine against int64-edge streams:
// adversarial timestamps that once provoked span overflow (negative offsets
// wrapping into payload indices) must neither panic nor diverge from the
// oracle, for query ranges probing both ends of the int64 line.
func TestExtremeTimestampQueries(t *testing.T) {
	const maxInt64 = 1<<63 - 1
	const minInt64 = -1 << 63
	rng := rand.New(rand.NewSource(5))
	st := server.NewStore(2)
	table := randTable(t, rng, 4)
	if err := st.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := st.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	ts := []int64{minInt64 + 1, -(maxInt64 / 510), 0, maxInt64 / 510 * 2, maxInt64 - 900, maxInt64}
	for _, tt := range ts {
		pts := []symbolic.SymbolPoint{{T: tt, S: symbolic.NewSymbol(rng.Intn(16), 4)}}
		if _, err := appendNext(st, 1, pts); err != nil {
			t.Fatal(err)
		}
	}
	e := New(st)
	for _, r := range [][2]int64{
		{minInt64, maxInt64},
		{maxInt64 - 1000, maxInt64},
		{minInt64, minInt64 + 10},
		{-1, 1},
		{maxInt64 / 510, maxInt64 / 510 * 3},
	} {
		checkAgainstOracle(t, e, st, 1, 16, r[0], r[1])
	}
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

// TestQueryZeroAlloc pins the satellite contract: block-summary queries,
// batched-kernel edge queries and a range that ends inside the live tail
// allocate nothing in steady state.
func TestQueryZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := server.NewStore(1)
	table := randTable(t, rng, 4) // level 4: packed-kernel fast path
	last := seedMeter(t, st, rng, 1, table, 3000, 0, 0)
	e := New(st)
	full := func() { // summary-only: covers every block exactly
		if a, ok := e.Aggregate(1, 0, last+900); !ok || a.Count == 0 {
			t.Fatal("bad aggregate")
		}
	}
	partial := func() { // cuts inside blocks on both ends: edge kernels
		if a, ok := e.Aggregate(1, 100*900, 2500*900+450); !ok || a.Count == 0 || a.Sum == 0 {
			t.Fatal("bad aggregate")
		}
	}
	var h Histogram
	hist := func() {
		if _, err := e.HistogramInto(&h, 1, 100*900, 2500*900+450); err != nil {
			t.Fatal(err)
		}
	}
	// Ends inside the live tail: the tail's edge folds through the same step
	// as a sealed block's, under the shard read lock.
	m, _ := st.Meter(1)
	tailT, ok := liveTailStart(m)
	t0, t1 := int64(100*900), int64(2800*900+450)
	if !ok || t1 <= tailT || t1 >= last {
		t.Fatalf("tail-edge range [%d, %d) does not end inside the tail [%d, %d)", t0, t1, tailT, last)
	}
	tailEdge := func() {
		if a, ok := e.Aggregate(1, t0, t1); !ok || a.Count == 0 {
			t.Fatal("bad tail-edge aggregate")
		}
		if n, ok := e.Count(1, t0, t1); !ok || n == 0 {
			t.Fatal("bad tail-edge count")
		}
		if _, err := e.HistogramInto(&h, 1, t0, t1); err != nil {
			t.Fatal(err)
		}
	}
	for _, pin := range []struct {
		name string
		f    func()
	}{
		{"summary query", full},
		{"edge-kernel query", partial},
		{"HistogramInto", hist},
		{"tail-edge query", tailEdge},
	} {
		if n := mallocs(100, pin.f); n != 0 {
			t.Fatalf("%s made %d mallocs over 100 runs, want 0", pin.name, n)
		}
	}
	checkAgainstOracle(t, e, st, 1, 16, t0, t1)
}

// TestPrunedQueryZeroAllocAndLockFree pins the read-path satellites
// together: a narrow range over sealed data resolves through the published
// time directory (no chain walk), allocates nothing in steady state, and
// takes zero shard-lock acquisitions.
func TestPrunedQueryZeroAllocAndLockFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := server.NewStore(2)
	table := randTable(t, rng, 4)
	seedMeter(t, st, rng, 1, table, 6*server.BlockCap+50, 0, 0) // 6 sealed blocks + tail
	e := New(st)
	m, ok := st.Meter(1)
	if !ok {
		t.Fatal("meter unknown")
	}
	tailT, ok := liveTailStart(m)
	if !ok {
		t.Fatal("no live tail")
	}
	const w = 900
	t0, t1 := int64(2*server.BlockCap+7)*w, int64(3*server.BlockCap+90)*w // inside blocks 2-3
	if t1 >= tailT {
		t.Fatalf("test range %d reaches the tail start %d", t1, tailT)
	}
	before := st.QueryLockAcquisitions()
	pruned := func() {
		if a, ok := e.Aggregate(1, t0, t1); !ok || a.Count == 0 || a.Sum == 0 {
			t.Fatal("bad pruned aggregate")
		}
		if n, ok := e.Count(1, t0, t1); !ok || n == 0 {
			t.Fatal("bad pruned count")
		}
	}
	if n := mallocs(100, pruned); n != 0 {
		t.Fatalf("pruned sealed query made %d mallocs over 100 runs, want 0", n)
	}
	var h Histogram
	histPruned := func() {
		if _, err := e.HistogramInto(&h, 1, t0, t1); err != nil {
			t.Fatal(err)
		}
	}
	histPruned()
	if n := mallocs(100, histPruned); n != 0 {
		t.Fatalf("pruned HistogramInto made %d mallocs over 100 runs, want 0", n)
	}
	if locks := st.QueryLockAcquisitions() - before; locks != 0 {
		t.Fatalf("sealed-range engine queries took %d shard locks, want 0", locks)
	}
	// Sanity: the same queries still agree with the oracle.
	checkAgainstOracle(t, e, st, 1, 16, t0, t1)
	// And a range past the tail start does pay (only) tail-fold locks.
	if _, ok := e.Aggregate(1, t0, tailT+w); !ok {
		t.Fatal("tail aggregate failed")
	}
	if locks := st.QueryLockAcquisitions() - before; locks != 1 {
		t.Fatalf("tail-touching aggregate took %d locks, want 1", locks)
	}
}

// TestFleetWorkerPoolEquivalence pins the per-core fan-out: every worker
// count — set through GOMAXPROCS, restored afterwards — produces
// bit-identical integer aggregates and tolerance-identical sums, whether
// smaller, equal to, or larger than the shard count.
func TestFleetWorkerPoolEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	st := server.NewStore(8)
	for m := 1; m <= 23; m++ {
		seedMeter(t, st, rng, uint64(m), randTable(t, rng, 4), 200+rng.Intn(900), 8, 0)
	}
	e := New(st)
	t0, t1 := int64(50*900), int64(800*900)
	ref := e.FleetAggregate(t0, t1)
	refHist, err := e.FleetHistogram(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 3, 8, 64} {
		runtime.GOMAXPROCS(workers)
		a := e.FleetAggregate(t0, t1)
		if a.Count != ref.Count || a.Min != ref.Min || a.Max != ref.Max || relDiff(a.Sum, ref.Sum) > 1e-9 {
			t.Fatalf("workers=%d: FleetAggregate %+v, want %+v", workers, a, ref)
		}
		h, err := e.FleetHistogram(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		for s := range refHist.Counts {
			if h.Counts[s] != refHist.Counts[s] {
				t.Fatalf("workers=%d: hist[%d] = %d, want %d", workers, s, h.Counts[s], refHist.Counts[s])
			}
		}
	}
}

// TestFleetCountMatchesAggregate pins the fleet count, which the wire's
// fleet OpCount answers through the payload-free Count fan-out: it equals
// FleetAggregate's Count and the sum of per-meter Counts over random ranges,
// half of them reaching into the meters' live tails, in process and over
// ServeQuery.
func TestFleetCountMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := server.NewStore(8)
	const meters = 19
	var last int64
	for m := 1; m <= meters; m++ {
		last = max(last, seedMeter(t, st, rng, uint64(m), randTable(t, rng, 4), 300+rng.Intn(1500), 6, 500))
	}
	e := New(st)
	var res transport.QueryResult
	for i := 0; i < 60; i++ {
		t0 := rng.Int63n(last) - 900
		t1 := t0 + 1 + rng.Int63n(last-t0)
		if i%2 == 1 {
			t1 = last + 900 // reaches every live tail
		}
		var want uint64
		for m := 1; m <= meters; m++ {
			n, _ := e.Count(uint64(m), t0, t1)
			want += n
		}
		if got := e.FleetCount(t0, t1); got != want {
			t.Fatalf("[%d, %d): FleetCount %d, per-meter Counts sum to %d", t0, t1, got, want)
		}
		if a := e.FleetAggregate(t0, t1); a.Count != want {
			t.Fatalf("[%d, %d): FleetAggregate count %d, per-meter Counts sum to %d", t0, t1, a.Count, want)
		}
		req := transport.QueryRequest{ID: uint64(i + 1), Op: transport.OpCount, Fleet: true, T0: t0, T1: t1}
		if err := e.ServeQuery(req, &res); err != nil || res.Count != want {
			t.Fatalf("[%d, %d): fleet OpCount %d (%v), want %d", t0, t1, res.Count, err, want)
		}
	}
}

// TestFleetQueryDuringIngest is the engine-level mixed-workload stress
// (-race): fleet aggregates and per-meter histograms run concurrently with
// appends that keep sealing and publishing blocks. Fleet counts over a
// fixed range must never go backwards (lost publications), and the final
// quiescent result must match the per-meter merge exactly.
func TestFleetQueryDuringIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := server.NewStore(4)
	const meters = 6
	const batches = 50
	const batchPts = 40
	tables := make([]*symbolic.Table, meters+1)
	for m := 1; m <= meters; m++ {
		tables[m] = randTable(t, rng, 4)
		if err := st.StartSession(uint64(m)); err != nil {
			t.Fatal(err)
		}
		if err := st.PushTable(uint64(m), tables[m]); err != nil {
			t.Fatal(err)
		}
	}
	e := New(st)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for m := 1; m <= meters; m++ {
		writers.Add(1)
		go func(id uint64) {
			defer writers.Done()
			table := tables[id]
			var ts int64
			for b := 0; b < batches; b++ {
				pts := make([]symbolic.SymbolPoint, batchPts)
				for i := range pts {
					pts[i] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol(int(ts/900)%16, 4)}
					ts += 900
				}
				if b%9 == 4 {
					ts += 4 * 900 // gap: seal + publish mid-stream
				}
				if _, err := appendNext(st, id, pts); err != nil {
					t.Error(err)
					return
				}
				_ = table
			}
		}(uint64(m))
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			e := New(st)
			var lastCount uint64
			var h Histogram
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := e.FleetAggregate(0, 1<<60)
				if a.Count < lastCount {
					t.Errorf("fleet count went backwards: %d -> %d", lastCount, a.Count)
					return
				}
				lastCount = a.Count
				if _, err := e.HistogramInto(&h, uint64(i%meters+1), 0, 1<<60); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	var want Agg
	for m := 1; m <= meters; m++ {
		a, ok := e.Aggregate(uint64(m), 0, 1<<60)
		if !ok {
			t.Fatalf("meter %d unknown", m)
		}
		want.Merge(a)
	}
	got := e.FleetAggregate(0, 1<<60)
	if got.Count != uint64(meters*batches*batchPts) {
		t.Fatalf("final fleet count = %d, want %d", got.Count, meters*batches*batchPts)
	}
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || relDiff(got.Sum, want.Sum) > 1e-9 {
		t.Fatalf("fleet %+v != merged per-meter %+v", got, want)
	}
}
