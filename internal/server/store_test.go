package server

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"symmeter/internal/symbolic"
)

func testTable(t *testing.T) *symbolic.Table {
	t.Helper()
	vals := make([]float64, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// appendNext commits pts as the meter's next sequenced batch, as a session
// would.
func appendNext(s *Store, meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	n, _, err := s.AppendSeq(meterID, s.LastSeq(meterID)+1, pts)
	return n, err
}

func TestShardSpread(t *testing.T) {
	s := NewStore(8)
	if s.NumShards() != 8 {
		t.Fatalf("shards = %d", s.NumShards())
	}
	// Sequential meter IDs must not all map to a few shards.
	counts := make([]int, 8)
	for id := uint64(1); id <= 1024; id++ {
		counts[s.ShardFor(id)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got no meters out of 1024 sequential IDs", i)
		}
		if c > 1024/8*2 {
			t.Fatalf("shard %d got %d of 1024 meters (poor spread)", i, c)
		}
	}
}

func TestNewStoreClampsShards(t *testing.T) {
	if n := NewStore(0).NumShards(); n != 1 {
		t.Fatalf("shards = %d, want 1", n)
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := NewStore(4)
	if err := s.StartSession(7); err != nil {
		t.Fatal(err)
	}
	if err := s.StartSession(7); !errors.Is(err, ErrDuplicateMeter) {
		t.Fatalf("second session error = %v, want ErrDuplicateMeter", err)
	}
	s.EndSession(7)
	if err := s.StartSession(7); err != nil {
		t.Fatalf("reconnect after EndSession: %v", err)
	}
	st, ok := s.Snapshot(7)
	if !ok || st.Sessions != 2 {
		t.Fatalf("snapshot = %+v ok=%v, want 2 sessions", st, ok)
	}
}

func TestWritesRequireRegistration(t *testing.T) {
	s := NewStore(4)
	table := testTable(t)
	if err := s.PushTable(9, table); !errors.Is(err, ErrUnknownMeter) {
		t.Fatalf("PushTable error = %v, want ErrUnknownMeter", err)
	}
	if _, err := appendNext(s, 9, nil); !errors.Is(err, ErrUnknownMeter) {
		t.Fatalf("Append error = %v, want ErrUnknownMeter", err)
	}
	if err := s.StartSession(9); err != nil {
		t.Fatal(err)
	}
	if _, err := appendNext(s, 9, []symbolic.SymbolPoint{{T: 60, S: table.Encode(100)}}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Append before table error = %v, want ErrNoTable", err)
	}
	if err := s.PushTable(9, table); err != nil {
		t.Fatal(err)
	}
	n, err := appendNext(s, 9, []symbolic.SymbolPoint{{T: 60, S: table.Encode(100)}})
	if err != nil || n != 1 {
		t.Fatalf("Append = %d, %v", n, err)
	}
	st, _ := s.Snapshot(9)
	if len(st.Points) != 1 || st.Points[0].T != 60 {
		t.Fatalf("points = %+v", st.Points)
	}
}

// TestConcurrentStoreAccess hammers one store from many goroutines across
// overlapping meters and shards; run under -race.
func TestConcurrentStoreAccess(t *testing.T) {
	s := NewStore(4)
	table := testTable(t)
	const meters = 64
	var wg sync.WaitGroup
	for m := 1; m <= meters; m++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := s.StartSession(id); err != nil {
				t.Error(err)
				return
			}
			defer s.EndSession(id)
			if err := s.PushTable(id, table); err != nil {
				t.Error(err)
				return
			}
			for batch := 0; batch < 10; batch++ {
				pts := make([]symbolic.SymbolPoint, 8)
				for i := range pts {
					pts[i] = symbolic.SymbolPoint{T: int64(batch*8+i) * 60, S: table.Encode(float64(i) * 100)}
				}
				if _, err := appendNext(s, id, pts); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(m))
	}
	// Concurrent readers while writes are in flight.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.TotalSymbols()
				meterCount(s)
				s.Snapshot(uint64(i%meters + 1))
			}
		}()
	}
	wg.Wait()
	if got := s.TotalSymbols(); got != meters*10*8 {
		t.Fatalf("total symbols = %d, want %d", got, meters*10*8)
	}
	if got := meterCount(s); got != meters {
		t.Fatalf("meters = %d, want %d", got, meters)
	}
}

// TestAppendRejectsBatchAtomically pins the no-partial-commit contract: a
// batch containing one undecodable symbol must leave the meter's points
// exactly as they were, not half-appended.
func TestAppendRejectsBatchAtomically(t *testing.T) {
	s := NewStore(2)
	table := testTable(t) // k=8, level 3
	if err := s.StartSession(5); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(5, table); err != nil {
		t.Fatal(err)
	}
	good := []symbolic.SymbolPoint{{T: 60, S: table.Encode(100)}, {T: 120, S: table.Encode(900)}}
	if _, err := appendNext(s, 5, good); err != nil {
		t.Fatal(err)
	}
	// Two decodable points followed by a wrong-level symbol: nothing from
	// this batch may land.
	bad := []symbolic.SymbolPoint{
		{T: 180, S: table.Encode(100)},
		{T: 240, S: table.Encode(200)},
		{T: 300, S: symbolic.NewSymbol(1, 5)},
	}
	if _, err := appendNext(s, 5, bad); !errors.Is(err, ErrBadSymbol) {
		t.Fatalf("Append error = %v, want ErrBadSymbol", err)
	}
	st, _ := s.Snapshot(5)
	if len(st.Points) != len(good) {
		t.Fatalf("store has %d points after failed batch, want %d (partial commit)", len(st.Points), len(good))
	}
	// The meter is still usable after the refused batch.
	if n, err := appendNext(s, 5, good); err != nil || n != 2 {
		t.Fatalf("Append after refusal = %d, %v", n, err)
	}
}

// splitMallocs runs f runs times at GOMAXPROCS(1) and counts each call's
// mallocs exactly, split by whether the call sealed a block (f reports how
// many it sealed). Sealing a full block allocates by design — the next
// tail's payload and the published index — so a pin holds the calls that
// stay inside one block at exactly zero and bounds the seals on their own.
func splitMallocs(runs int, f func() (sealed int)) (inBlock, atSeal uint64, seals int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		n := f()
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; n > 0 {
			atSeal += d
			seals += n
		} else {
			inBlock += d
		}
	}
	return inBlock, atSeal, seals
}

// TestStoreAppendZeroAlloc enforces the hot ingest path's allocation
// contract on a regular stream, whose timestamps advance monotonically
// across batches as a live meter's do and whose blocks fill to BlockCap
// before sealing: an AppendSeq that stays inside the tail block allocates
// nothing — no error values, no per-point table lookups, no lane growth —
// and one that seals costs at most 2.5 mallocs per sealed block (the new
// tail's payload and the published index, plus the chain slices' amortised
// growth).
func TestStoreAppendZeroAlloc(t *testing.T) {
	s := NewStore(1)
	table := testTable(t)
	if err := s.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	const batch = 96
	const runs = 1000
	pts := make([]symbolic.SymbolPoint, batch)
	syms := make([]symbolic.Symbol, batch)
	for i := range syms {
		syms[i] = table.Encode(float64(i * 10))
	}
	e := s.shardOf(1).meter(1)
	var next int64
	var seq uint64
	appendBatch := func() (sealed int) {
		for i := range pts {
			pts[i] = symbolic.SymbolPoint{T: (next + int64(i)) * 60, S: syms[i]}
		}
		next += batch
		seq++
		before := len(e.idx.Load().blocks)
		if _, dup, err := s.AppendSeq(1, seq, pts); err != nil || dup {
			t.Fatalf("AppendSeq seq %d: dup=%v err=%v", seq, dup, err)
		}
		return len(e.idx.Load().blocks) - before
	}
	// Warm up to a block boundary: lcm(BlockCap, batch) = 1536 points.
	for range 1536 / batch {
		appendBatch()
	}
	inBlock, atSeal, seals := splitMallocs(runs, appendBatch)
	t.Logf("%d runs: %d mallocs inside a block, %d over %d seals", runs, inBlock, atSeal, seals)
	if want := runs * batch / BlockCap; seals < want {
		t.Fatalf("%d runs sealed %d blocks, want ≥ %d", runs, seals, want)
	}
	if inBlock != 0 {
		t.Errorf("AppendSeq inside a block made %d mallocs over %d runs, want 0", inBlock, runs)
	}
	if total := inBlock + atSeal; 2*total > 5*uint64(seals) {
		t.Errorf("AppendSeq made %d mallocs for %d sealed blocks, want ≤ 2.5 per seal", total, seals)
	}
}

// TestBlockChainShape pins the sealing rules: blocks fill to BlockCap on a
// regular stream, seal early on a stride break (gap) or a table push (new
// epoch), and snapshots reconstruct exact timestamps through all of it.
func TestBlockChainShape(t *testing.T) {
	s := NewStore(2)
	table := testTable(t)
	if err := s.StartSession(3); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(3, table); err != nil {
		t.Fatal(err)
	}
	var want []int64
	push := func(ts ...int64) {
		t.Helper()
		pts := make([]symbolic.SymbolPoint, len(ts))
		for i, tt := range ts {
			pts[i] = symbolic.SymbolPoint{T: tt, S: table.Encode(float64(tt % 997))}
		}
		if _, err := appendNext(s, 3, pts); err != nil {
			t.Fatal(err)
		}
		want = append(want, ts...)
	}

	// Regular minute stream crossing one block boundary.
	long := make([]int64, BlockCap+10)
	for i := range long {
		long[i] = int64(i) * 60
	}
	push(long...)
	// Gap: jumps from the established stride, then a different stride.
	push(100_000, 100_900, 101_800)
	// Epoch change seals the tail even though its stride could continue.
	if err := s.PushTable(3, table); err != nil {
		t.Fatal(err)
	}
	push(102_700, 103_600)
	// Backwards timestamp (reconnect replay) starts a fresh block.
	push(50, 110)

	st, ok := s.Snapshot(3)
	if !ok {
		t.Fatal("no snapshot")
	}
	if len(st.Points) != len(want) {
		t.Fatalf("snapshot has %d points, want %d", len(st.Points), len(want))
	}
	for i, p := range st.Points {
		if p.T != want[i] {
			t.Fatalf("point %d: T = %d, want %d", i, p.T, want[i])
		}
		if v, err := st.Tables[len(st.Tables)-1].Value(p.S); err != nil || v != p.V {
			t.Fatalf("point %d: V = %v, table gives %v (err %v)", i, p.V, v, err)
		}
	}
	if got := s.TotalSymbols(); got != len(want) {
		t.Fatalf("TotalSymbols = %d, want %d", got, len(want))
	}

	// The visitor sees the same stream the snapshot reconstructed, and every
	// block's summary matches a recount of its own payload.
	var visited int
	visitChain(s, 3, func(v BlockView) {
		visited += v.N
		hist := make([]uint64, 1<<uint(v.Level))
		symbolic.PackedRangeHistogram(hist, v.Payload, v.Level, 0, v.N)
		var n uint64
		var sum float64
		minV, maxV := math.Inf(1), math.Inf(-1)
		for sym, c := range hist {
			n += c
			sum += float64(c) * v.Values[sym]
			if c > 0 {
				minV = math.Min(minV, v.Values[sym])
				maxV = math.Max(maxV, v.Values[sym])
			}
		}
		if int(n) != v.N || minV != v.MinV || maxV != v.MaxV {
			t.Fatalf("block summary mismatch: n=%d/%d min=%v/%v max=%v/%v", n, v.N, minV, v.MinV, maxV, v.MaxV)
		}
		if d := sum - v.Sum; d > 1e-6 || d < -1e-6 {
			t.Fatalf("block sum %v, recount %v", v.Sum, sum)
		}
		for i := 0; i < len(v.Hist); i++ {
			if uint64(v.Hist[i]) != hist[i] {
				t.Fatalf("block hist[%d] = %d, recount %d", i, v.Hist[i], hist[i])
			}
		}
	})
	if visited != len(want) {
		t.Fatalf("visitor saw %d points, want %d", visited, len(want))
	}
}

// TestMemoryFootprint verifies the packed store's headline: resident bytes
// per point are a small fraction of the 24-byte ReconPoint it replaced.
func TestMemoryFootprint(t *testing.T) {
	s := NewStore(4)
	table := testTable(t) // k=8, level 3
	const n = 8192
	if err := s.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	pts := make([]symbolic.SymbolPoint, n)
	for i := range pts {
		pts[i] = symbolic.SymbolPoint{T: int64(i) * 900, S: table.Encode(float64(i % 4000))}
	}
	if _, err := appendNext(s, 1, pts); err != nil {
		t.Fatal(err)
	}
	bytes, points := s.MemoryFootprint()
	if points != n {
		t.Fatalf("points = %d, want %d", points, n)
	}
	perPoint := float64(bytes) / float64(points)
	if perPoint > 2.4 { // ≥ 10x under the 24-byte ReconPoint
		t.Fatalf("%.2f bytes/point, want ≤ 2.4 (10x reduction vs 24-byte ReconPoint)", perPoint)
	}
}

// TestBlockLayout pins what the store keeps per block beside its payload and
// histogram lanes: a field added to block fails here instead of drifting the
// resident bytes per symbol.
func TestBlockLayout(t *testing.T) {
	if got := unsafe.Sizeof(block{}); got > 72 {
		t.Fatalf("block is %d bytes, want ≤ 72", got)
	}
}

// TestMeterEntryLayout pins each meter's fixed cost before any history
// amortises it: a field added to meterEntry is paid once per meter in the
// process, so the bound may only tighten.
func TestMeterEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(meterEntry{}); got > 176 {
		t.Fatalf("meterEntry is %d bytes, want ≤ 176", got)
	}
}

// TestDegenerateStreamMemoryBounded pins the seal-time trimming: a stream
// whose timestamps break the stride on every point (client-controlled wire
// input — out-of-order replay, alternating clocks) seals a near-empty block
// per point. Trimming must keep the cost to per-block metadata instead of a
// full 512-symbol payload plus histogram lanes each.
func TestDegenerateStreamMemoryBounded(t *testing.T) {
	s := NewStore(1)
	table := testTable(t) // k=8, level 3: full payload would be 192 B/block
	if err := s.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	const n = 4096
	for i := 0; i < n; i++ {
		// Alternating far-apart timestamps: every point breaks the stride.
		ts := int64(i)
		if i%2 == 1 {
			ts += 1 << 40
		}
		pts := []symbolic.SymbolPoint{{T: ts, S: table.Encode(float64(i % 997))}}
		if _, err := appendNext(s, 1, pts); err != nil {
			t.Fatal(err)
		}
	}
	bytes, points := s.MemoryFootprint()
	if points != n {
		t.Fatalf("points = %d, want %d", points, n)
	}
	perPoint := float64(bytes) / float64(points)
	// Untrimmed, each 1-point block would pin ~328 B (192 payload + 32 hist
	// + metadata); trimmed, only the metadata and one payload byte remain.
	if perPoint > 128 {
		t.Fatalf("degenerate stream costs %.0f B/point, want ≤ 128 (seal trimming broken)", perPoint)
	}
	// The pathological chain must still reconstruct and query correctly.
	st, _ := s.Snapshot(1)
	if len(st.Points) != n {
		t.Fatalf("snapshot has %d points, want %d", len(st.Points), n)
	}
}

// TestAdversarialTimestampOverflow pins the stride guard: timestamps chosen
// to wrap the block's arithmetic progression past int64 must not corrupt
// queries — every point lands in its own block and both read paths
// (visitor-based queries and Snapshot reconstruction) see all of them.
func TestAdversarialTimestampOverflow(t *testing.T) {
	s := NewStore(1)
	table := testTable(t)
	if err := s.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	const minInt64 = -1 << 63
	// Includes the span-overflow shape: firstT ≈ -maxInt64/510 followed by
	// t=0 fixes a stride whose 511-step span exceeds int64 even though the
	// block's own lastT would not — offsets t0-firstT must never wrap.
	ts := []int64{1, 1<<62 + 1, minInt64 + 1, maxInt64, maxInt64 - 1, 0,
		-(maxInt64 / 510), 0, maxInt64 / 510 * 2}
	for _, tt := range ts {
		if _, err := appendNext(s, 1, []symbolic.SymbolPoint{{T: tt, S: table.Encode(100)}}); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	visitChain(s, 1, func(v BlockView) {
		visited += v.N
		if v.LastT() < v.FirstT {
			t.Fatalf("block lastT %d wrapped below firstT %d", v.LastT(), v.FirstT)
		}
	})
	if visited != len(ts) {
		t.Fatalf("queries see %d points, want %d", visited, len(ts))
	}
	st, _ := s.Snapshot(1)
	if len(st.Points) != len(ts) {
		t.Fatalf("snapshot has %d points, want %d", len(st.Points), len(ts))
	}
	for i, p := range st.Points {
		if p.T != ts[i] {
			t.Fatalf("point %d: T = %d, want %d", i, p.T, ts[i])
		}
	}
}

// TestNegativeTimestampsFormFullBlocks pins the other side of the stride
// guard: a perfectly regular stream whose timestamps sit before the epoch
// (negative int64) is ordinary input and must still pack into full blocks —
// a guard that rejects negative time would silently fragment one block per
// point and forfeit the store's memory and summary contracts.
func TestNegativeTimestampsFormFullBlocks(t *testing.T) {
	s := NewStore(1)
	table := testTable(t)
	if err := s.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(1, table); err != nil {
		t.Fatal(err)
	}
	const n = BlockCap + 100
	pts := make([]symbolic.SymbolPoint, n)
	for i := range pts {
		pts[i] = symbolic.SymbolPoint{T: -86400 + int64(i)*900, S: table.Encode(float64(i % 997))}
	}
	if _, err := appendNext(s, 1, pts); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	visitChain(s, 1, func(v BlockView) { blocks++ })
	if blocks != 2 {
		t.Fatalf("regular pre-epoch stream fragmented into %d blocks, want 2", blocks)
	}
}

// --- Lock-free read path (RCU-published sealed index) ---------------------

// seedRegular streams n regularly-strided points (window w) into meter id,
// in batches of 96, returning the first timestamp past the stream.
func seedRegular(t *testing.T, s *Store, table *symbolic.Table, id uint64, n int, w int64) int64 {
	t.Helper()
	if err := s.StartSession(id); err != nil {
		t.Fatal(err)
	}
	defer s.EndSession(id)
	if err := s.PushTable(id, table); err != nil {
		t.Fatal(err)
	}
	var ts int64
	for sent := 0; sent < n; {
		batch := 96
		if batch > n-sent {
			batch = n - sent
		}
		pts := make([]symbolic.SymbolPoint, batch)
		for i := range pts {
			pts[i] = symbolic.SymbolPoint{T: ts, S: table.Encode(float64((sent + i) % 997))}
			ts += w
		}
		if _, err := appendNext(s, id, pts); err != nil {
			t.Fatal(err)
		}
		sent += batch
	}
	return ts
}

// TestSealedReadsLockFree pins the tentpole contract: a range query that
// ends before the live tail's first timestamp reads only the published
// index and takes zero shard-lock acquisitions; a range reaching the tail
// takes exactly the brief tail-fold lock. Meters and TotalSymbols read
// published state and never lock either.
func TestSealedReadsLockFree(t *testing.T) {
	s := NewStore(2)
	table := testTable(t)
	const w = 900
	seedRegular(t, s, table, 1, 4*BlockCap+100, w) // 4 sealed blocks + live tail
	m, ok := s.Meter(1)
	if !ok {
		t.Fatal("meter unknown")
	}
	if got := sealedBlocks(m); got != 4 {
		t.Fatalf("sealed blocks = %d, want 4", got)
	}
	tailT, ok := liveTailStart(m)
	if !ok {
		t.Fatal("no live tail")
	}
	if want := int64(4*BlockCap) * w; tailT != want {
		t.Fatalf("tail start = %d, want %d", tailT, want)
	}

	before := s.QueryLockAcquisitions()
	var pts int
	eachView(m, 0, tailT, func(v BlockView) { pts += v.N })
	if pts != 4*BlockCap {
		t.Fatalf("sealed range saw %d points, want %d", pts, 4*BlockCap)
	}
	meterCount(s)
	s.TotalSymbols()
	if got := s.QueryLockAcquisitions(); got != before {
		t.Fatalf("sealed-only reads took %d shard locks, want 0", got-before)
	}

	// A range reaching past the tail start folds the tail under one lock.
	pts = 0
	eachView(m, 0, tailT+1, func(v BlockView) { pts += v.N })
	if pts != 4*BlockCap+100 {
		t.Fatalf("tail-touching range saw %d points, want %d", pts, 4*BlockCap+100)
	}
	if got := s.QueryLockAcquisitions() - before; got != 1 {
		t.Fatalf("tail-touching query took %d locks, want 1", got)
	}
}

// TestTimeDirectoryPrunes pins the O(log B + blocks in range) contract: a
// narrow range over a long time-ordered chain visits only the blocks whose
// span intersects it, not the whole chain; and a chain that replays old
// timestamps loses orderedness but none of its points.
func TestTimeDirectoryPrunes(t *testing.T) {
	s := NewStore(1)
	table := testTable(t)
	const w = 900
	const nBlocks = 64
	seedRegular(t, s, table, 1, nBlocks*BlockCap+10, w)
	m, _ := s.Meter(1)
	if !timeOrdered(m) {
		t.Fatal("regular stream not time-ordered")
	}
	// One block's interior: indices inside sealed block 10.
	t0 := int64(10*BlockCap+5) * w
	t1 := int64(10*BlockCap+50) * w
	visited := 0
	eachView(m, t0, t1, func(v BlockView) { visited++ })
	if visited != 1 {
		t.Fatalf("1-block range visited %d blocks, want 1 (directory not pruning)", visited)
	}
	// A range straddling two block boundaries visits exactly three blocks.
	visited = 0
	eachView(m, int64(9*BlockCap+100)*w, int64(11*BlockCap+100)*w, func(v BlockView) { visited++ })
	if visited != 3 {
		t.Fatalf("3-block range visited %d blocks, want 3", visited)
	}
	// Before-the-stream and after-the-sealed-chain ranges visit nothing
	// sealed (the latter pays the tail fold only).
	visited = 0
	eachView(m, -1000, -1, func(v BlockView) { visited++ })
	if visited != 0 {
		t.Fatalf("pre-stream range visited %d blocks, want 0", visited)
	}

	// Replayed old timestamps: orderedness is lost, correctness is not.
	if _, err := appendNext(s, 1, []symbolic.SymbolPoint{{T: 3, S: table.Encode(1)}, {T: 5, S: table.Encode(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := appendNext(s, 1, []symbolic.SymbolPoint{{T: int64(nBlocks*BlockCap+20) * w, S: table.Encode(3)}}); err != nil {
		t.Fatal(err)
	}
	if timeOrdered(m) {
		t.Fatal("replayed timestamps left the chain marked time-ordered")
	}
	got := 0
	eachView(m, 0, int64(1<<40), func(v BlockView) {
		i0, i1 := 0, v.N
		if v.FirstT >= 1<<40 {
			i0 = i1
		}
		got += i1 - i0
	})
	if want := nBlocks*BlockCap + 10 + 3; got != want {
		t.Fatalf("unordered chain query saw %d points, want %d", got, want)
	}
}

// TestConcurrentPublishStress is the -race pin for the publication
// protocol: concurrent Append (sealing and publishing), PushTable (epoch
// changes), lock-free CollectRange readers, Snapshot reconstruction and the
// published-directory readers (Meters/TotalSymbols) all hammer the same two
// shards. Readers check per-meter full-range counts never go backwards (a
// torn publication would lose sealed blocks) and every view is internally
// consistent, its histogram included: short blocks between two gaps give
// their lanes back at seal, and the next tail reuses those cells while
// readers hold views of the sealed blocks before them.
func TestConcurrentPublishStress(t *testing.T) {
	s := NewStore(2) // few shards: force meters to collide on locks
	table := testTable(t)
	const meters = 8
	const batches = 60
	const batchPts = 32
	const shortPts = 3 // fewer than k: the block gives its lanes back
	var writers, readers sync.WaitGroup
	for id := uint64(1); id <= meters; id++ {
		if err := s.StartSession(id); err != nil {
			t.Fatal(err)
		}
		if err := s.PushTable(id, table); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	for id := uint64(1); id <= meters; id++ {
		writers.Add(1)
		go func(id uint64) {
			defer writers.Done()
			var ts int64
			for b := 0; b < batches; b++ {
				pts := make([]symbolic.SymbolPoint, batchPts)
				if b%11 == 7 {
					pts = pts[:shortPts]
					ts += 600 // and the gap below: a block of its own
				}
				for i := range pts {
					pts[i] = symbolic.SymbolPoint{T: ts, S: table.Encode(float64(i))}
					ts += 60
				}
				if b%7 == 3 || b%11 == 7 {
					ts += 600 // gap: forces a seal + publish
				}
				if b%13 == 5 {
					if err := s.PushTable(id, table); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := appendNext(s, id, pts); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			last := make(map[uint64]int)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(i%meters + 1)
				m, ok := s.Meter(id)
				if !ok {
					t.Errorf("meter %d vanished", id)
					return
				}
				n := 0
				eachView(m, -1, 1<<62, func(v BlockView) {
					if v.N <= 0 || v.LastT() < v.FirstT {
						t.Errorf("inconsistent view: n=%d firstT=%d lastT=%d", v.N, v.FirstT, v.LastT())
					}
					if v.Hist != nil {
						mass := 0
						for _, c := range v.Hist {
							mass += int(c)
						}
						if mass != v.N {
							t.Errorf("view of %d points has histogram mass %d", v.N, mass)
						}
					}
					n += v.N
				})
				if n < last[id] {
					t.Errorf("meter %d count went backwards: %d -> %d", id, last[id], n)
					return
				}
				last[id] = n
				if r == 0 {
					s.TotalSymbols()
					meterCount(s)
				}
				if r == 1 && i%5 == 0 {
					if st, ok := s.Snapshot(id); ok {
						for j := 1; j < len(st.Points); j++ {
							_ = st.Points[j]
						}
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for id := uint64(1); id <= meters; id++ {
		s.EndSession(id)
	}
	short := 0
	for b := 0; b < batches; b++ {
		if b%11 == 7 {
			short++
		}
	}
	if got, want := s.TotalSymbols(), meters*(batches*batchPts-short*(batchPts-shortPts)); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	// Post-quiescence: lock-free counts equal snapshot reconstruction.
	for id := uint64(1); id <= meters; id++ {
		m, _ := s.Meter(id)
		st, _ := s.Snapshot(id)
		if m.TotalSymbols() != len(st.Points) {
			t.Fatalf("meter %d: published total %d, snapshot %d", id, m.TotalSymbols(), len(st.Points))
		}
		if sealedSymbols(m) > m.TotalSymbols() {
			t.Fatalf("meter %d: sealed %d > total %d", id, sealedSymbols(m), m.TotalSymbols())
		}
	}
}

// TestRegistrationCostFlat pins meter registration at amortised O(1): the
// heap bytes one new meter costs (StartSession + EndSession, averaged over a
// window of a quarter of the fleet, so every window spans the same share of
// the meter list's growth) must not grow with the number of meters already
// registered in the shard. A registration that copies the shard's index
// costs eight times more at 8 192 meters than at 1 024.
func TestRegistrationCostFlat(t *testing.T) {
	s := NewStore(1)
	next := uint64(0)
	register := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.StartSession(next); err != nil {
				t.Fatal(err)
			}
			s.EndSession(next)
			next++
		}
	}
	perMeter := func(at int) float64 {
		register(at - int(next))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		register(at / 4)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(at/4)
	}
	small := perMeter(1024)
	large := perMeter(8192)
	t.Logf("bytes per registration: %.0f at 1 024 meters, %.0f at 8 192", small, large)
	if large > 2*small {
		t.Fatalf("registration at 8 192 meters costs %.0f B, more than twice the %.0f B at 1 024", large, small)
	}
}

// meterCount counts the meters on the store's published meter lists, taking
// no shard lock.
func meterCount(s *Store) int {
	n := 0
	for i := range s.NumShards() {
		n += len(s.ShardMeters(i))
	}
	return n
}
