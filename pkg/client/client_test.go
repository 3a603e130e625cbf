package client_test

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
	"symmeter/pkg/client"
)

// The test fixture: one shared store + service + engine for every test and
// the fuzz target. 8 meters × 700 windows of k=16 symbols.
const (
	fixtureMeters = 8
	fixturePoints = 700
	fixtureWindow = 900
	fixtureEnd    = fixturePoints * fixtureWindow
)

var fixture struct {
	once sync.Once
	eng  *query.Engine
	addr string
	err  error
}

// startFixture builds the shared store and serves it on an ephemeral port.
// The service lives for the whole test process: individual tests share the
// listener and open their own client connections.
func startFixture(t testing.TB) (string, *query.Engine) {
	t.Helper()
	fixture.once.Do(func() {
		st, err := makeQueryStore(fixtureMeters, fixturePoints)
		if err != nil {
			fixture.err = err
			return
		}
		svc := server.New(server.Config{Store: st})
		svc.SetQueryHandler(query.New(st))
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.eng = query.New(st)
		fixture.addr = addr.String()
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.addr, fixture.eng
}

// appendNext commits pts as the meter's next sequenced batch, as a session
// would.
func appendNext(st *server.Store, meterID uint64, pts []symbolic.SymbolPoint) error {
	_, _, err := st.AppendSeq(meterID, st.LastSeq(meterID)+1, pts)
	return err
}

// makeQueryStore builds the query fixture: `meters` meters, each with
// `points` stored symbols at k=16 (the paper's headline alphabet), 15-minute
// windows, streamed through Store.AppendSeq in 96-symbol batches exactly as
// live sessions commit them.
func makeQueryStore(meters, points int) (*server.Store, error) {
	table, err := storeTable()
	if err != nil {
		return nil, err
	}
	st := server.NewStore(16)
	level := table.Level()
	k := table.K()
	for m := 1; m <= meters; m++ {
		id := uint64(m)
		if err := st.StartSession(id); err != nil {
			return nil, err
		}
		if err := st.PushTable(id, table); err != nil {
			return nil, err
		}
		var ts int64
		for sent := 0; sent < points; {
			batch := min(96, points-sent)
			pts := make([]symbolic.SymbolPoint, batch)
			for i := range pts {
				pts[i] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol((m*7+int(ts/900)*11)%k, level)}
				ts += 900
			}
			if err := appendNext(st, id, pts); err != nil {
				return nil, err
			}
			sent += batch
		}
		st.EndSession(id)
	}
	return st, nil
}

// storeTable learns the small k=16 table every fixture meter shares.
func storeTable() (*symbolic.Table, error) {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	return symbolic.Learn(symbolic.MethodMedian, vals, 16)
}

func dialFixture(t testing.TB) (*client.Client, *query.Engine) {
	t.Helper()
	addr, eng := startFixture(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, eng
}

// bitsEqual compares floats as IEEE-754 bit patterns — the protocol's
// promise for per-meter results.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// approxEqual tolerates the reassociation of fleet partial merges, whose
// worker order is scheduling-dependent on both sides of the wire.
func approxEqual(a, b float64) bool {
	if bitsEqual(a, b) {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestClientMatchesEngineMeterOps checks every per-meter op against the
// in-process engine, bit-exact, across full, partial and empty windows.
func TestClientMatchesEngineMeterOps(t *testing.T) {
	c, eng := dialFixture(t)
	windows := [][2]int64{
		{0, fixtureEnd}, // full coverage
		{100 * fixtureWindow, 600*fixtureWindow + 450}, // cuts inside blocks
		{3 * fixtureWindow, 4 * fixtureWindow},         // single window
		{fixtureEnd + 1000, fixtureEnd + 2000},         // valid but empty
	}
	for _, w := range windows {
		t0, t1 := w[0], w[1]
		for id := uint64(1); id <= fixtureMeters; id++ {
			wantN, _ := eng.Count(id, t0, t1)
			gotN, err := c.Count(id, t0, t1)
			if err != nil || gotN != wantN {
				t.Fatalf("Count(%d, %d, %d) = %d, %v; want %d", id, t0, t1, gotN, err, wantN)
			}

			// The engine's Aggregate is the oracle of every scalar op.
			wantAgg, _ := eng.Aggregate(id, t0, t1)
			wantSum := wantAgg.Sum
			gotSum, gotSumN, err := c.Sum(id, t0, t1)
			if err != nil || !bitsEqual(gotSum, wantSum) || gotSumN != wantN {
				t.Fatalf("Sum(%d, %d, %d) = %v/%d, %v; want %v/%d", id, t0, t1, gotSum, gotSumN, err, wantSum, wantN)
			}

			wantMean := wantAgg.Mean()
			gotMean, err := c.Mean(id, t0, t1)
			if err != nil || !bitsEqual(gotMean, wantMean) {
				t.Fatalf("Mean(%d, %d, %d) = %v, %v; want %v", id, t0, t1, gotMean, err, wantMean)
			}

			wantMin, wantMinOK := wantAgg.Min, wantAgg.Count > 0
			gotMin, gotMinOK, err := c.Min(id, t0, t1)
			if err != nil || gotMinOK != wantMinOK || (wantMinOK && !bitsEqual(gotMin, wantMin)) {
				t.Fatalf("Min(%d, %d, %d) = %v/%v, %v; want %v/%v", id, t0, t1, gotMin, gotMinOK, err, wantMin, wantMinOK)
			}
			wantMax, wantMaxOK := wantAgg.Max, wantAgg.Count > 0
			gotMax, gotMaxOK, err := c.Max(id, t0, t1)
			if err != nil || gotMaxOK != wantMaxOK || (wantMaxOK && !bitsEqual(gotMax, wantMax)) {
				t.Fatalf("Max(%d, %d, %d) = %v/%v, %v; want %v/%v", id, t0, t1, gotMax, gotMaxOK, err, wantMax, wantMaxOK)
			}

			gotAgg, err := c.Aggregate(id, t0, t1)
			if err != nil || gotAgg.Count != wantAgg.Count || !bitsEqual(gotAgg.Sum, wantAgg.Sum) ||
				!bitsEqual(gotAgg.Min, wantAgg.Min) || !bitsEqual(gotAgg.Max, wantAgg.Max) {
				t.Fatalf("Aggregate(%d, %d, %d) = %+v, %v; want %+v", id, t0, t1, gotAgg, err, wantAgg)
			}

			var wantH query.Histogram
			if _, err := eng.HistogramInto(&wantH, id, t0, t1); err != nil {
				t.Fatal(err)
			}
			gotH, err := c.Histogram(id, t0, t1)
			if err != nil || gotH.Level != wantH.Level || len(gotH.Counts) != len(wantH.Counts) {
				t.Fatalf("Histogram(%d, %d, %d) = %+v, %v; want %+v", id, t0, t1, gotH, err, wantH)
			}
			for s := range gotH.Counts {
				if gotH.Counts[s] != wantH.Counts[s] {
					t.Fatalf("Histogram(%d) bin %d = %d, want %d", id, s, gotH.Counts[s], wantH.Counts[s])
				}
			}
		}
	}
}

// TestClientMatchesEngineFleetOps checks fleet-wide ops: integer aggregates
// (counts, histogram bins) bit-identical, float merges within reassociation
// tolerance.
func TestClientMatchesEngineFleetOps(t *testing.T) {
	c, eng := dialFixture(t)
	windows := [][2]int64{
		{0, fixtureEnd},
		{100 * fixtureWindow, 600*fixtureWindow + 450},
		{fixtureEnd + 1000, fixtureEnd + 2000},
	}
	for _, w := range windows {
		t0, t1 := w[0], w[1]

		wantAgg := eng.FleetAggregate(t0, t1)
		wantSum, wantN := wantAgg.Sum, wantAgg.Count
		gotN, err := c.FleetCount(t0, t1)
		if err != nil || gotN != wantN {
			t.Fatalf("FleetCount(%d, %d) = %d, %v; want %d", t0, t1, gotN, err, wantN)
		}
		gotSum, gotSumN, err := c.FleetSum(t0, t1)
		if err != nil || gotSumN != wantN || !approxEqual(gotSum, wantSum) {
			t.Fatalf("FleetSum(%d, %d) = %v/%d, %v; want %v/%d", t0, t1, gotSum, gotSumN, err, wantSum, wantN)
		}

		gotAgg, err := c.FleetAggregate(t0, t1)
		if err != nil || gotAgg.Count != wantAgg.Count ||
			!approxEqual(gotAgg.Sum, wantAgg.Sum) ||
			!bitsEqual(gotAgg.Min, wantAgg.Min) || !bitsEqual(gotAgg.Max, wantAgg.Max) {
			t.Fatalf("FleetAggregate(%d, %d) = %+v, %v; want %+v", t0, t1, gotAgg, err, wantAgg)
		}

		wantH, herr := eng.FleetHistogram(t0, t1)
		if herr != nil {
			t.Fatal(herr)
		}
		gotH, err := c.FleetHistogram(t0, t1)
		if err != nil || gotH.Level != wantH.Level || len(gotH.Counts) != len(wantH.Counts) {
			t.Fatalf("FleetHistogram(%d, %d) = %+v, %v; want %+v", t0, t1, gotH, err, wantH)
		}
		for s := range gotH.Counts {
			if gotH.Counts[s] != wantH.Counts[s] {
				t.Fatalf("FleetHistogram bin %d = %d, want %d", s, gotH.Counts[s], wantH.Counts[s])
			}
		}
	}
}

// TestClientTypedErrors checks the server's verdict errors surface through
// errors.Is and do NOT poison the connection.
func TestClientTypedErrors(t *testing.T) {
	c, _ := dialFixture(t)

	if _, err := c.Count(9999, 0, fixtureEnd); !errors.Is(err, client.ErrUnknownMeter) {
		t.Fatalf("unknown meter: %v", err)
	}
	if _, _, err := c.Sum(1, 500, 500); !errors.Is(err, client.ErrBadRange) {
		t.Fatalf("empty range: %v", err)
	}
	if _, _, err := c.FleetSum(10, 5); !errors.Is(err, client.ErrBadRange) {
		t.Fatalf("inverted range: %v", err)
	}
	if _, err := c.Histogram(8888, 0, fixtureEnd); !errors.Is(err, client.ErrUnknownMeter) {
		t.Fatalf("unknown meter histogram: %v", err)
	}

	// The stream stayed framed across all four verdicts: a normal query
	// still answers.
	n, err := c.Count(1, 0, fixtureEnd)
	if err != nil || n != fixturePoints {
		t.Fatalf("query after verdict errors: %d, %v; want %d", n, err, fixturePoints)
	}
}

// TestClientAggMean checks the client-side Agg helper matches the wire Mean.
func TestClientAggMean(t *testing.T) {
	c, _ := dialFixture(t)
	agg, err := c.Aggregate(2, 0, fixtureEnd)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := c.Mean(2, 0, fixtureEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(agg.Mean(), mean) {
		t.Fatalf("Agg.Mean %v != wire Mean %v", agg.Mean(), mean)
	}
	var empty client.Agg
	if !math.IsNaN(empty.Mean()) {
		t.Fatal("empty Agg.Mean not NaN")
	}
}

// TestClientSteadyStateZeroAlloc pins the whole round trip — request
// encode, server-side execute + response encode, client-side decode — at
// zero allocations per query in steady state. Runs over real TCP with the
// server in-process, so a single allocation on either side of the meter-op
// path fails the test.
func TestClientSteadyStateZeroAlloc(t *testing.T) {
	c, _ := dialFixture(t)
	t0, t1 := int64(100*fixtureWindow), int64(600*fixtureWindow+450)
	var h client.Histogram
	// Warm every reusable buffer: client request buf, server worker
	// result/encode buf, client decode bins, caller bins.
	if _, err := c.Aggregate(1, t0, t1); err != nil {
		t.Fatal(err)
	}
	if err := c.HistogramInto(&h, 1, t0, t1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Aggregate(1, t0, t1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Sum(1, t0, t1); err != nil {
			t.Fatal(err)
		}
		if err := c.HistogramInto(&h, 1, t0, t1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state query round trip allocates %v per run, want 0", n)
	}
}

// inBlockMallocs runs f runs times at GOMAXPROCS(1) and sums the exact
// mallocs of the calls that stay inside one block (f reports whether it
// sealed one): sealing allocates by design, so only those calls pin to zero.
func inBlockMallocs(runs int, f func() (sealed bool)) (n uint64, measured int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Collect before the window opens: a cycle that ends inside it wakes
	// runtime background work (the unique map's post-GC cleanup, the
	// scavenger's timer) whose mallocs ReadMemStats would count as f's.
	runtime.GC()
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		sealed := f()
		runtime.ReadMemStats(&after)
		if !sealed {
			n += after.Mallocs - before.Mallocs
			measured++
		}
	}
	return n, measured
}

// TestSessionAppendZeroAlloc pins the ingest round trip the way
// TestClientSteadyStateZeroAlloc pins queries: a 96-symbol Session.Append
// that stays inside the server's tail block — frame assembly, the server's
// decode and commit, its ack write, the client's ack read — allocates
// nothing, on either side of the loopback connection.
func TestSessionAppendZeroAlloc(t *testing.T) {
	const batch, runs = 96, 120
	svc := server.New(server.Config{Shards: 2})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	table, err := storeTable()
	if err != nil {
		t.Fatal(err)
	}
	s, err := client.DialSession(addr.String(), 1, client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PushTable(table); err != nil {
		t.Fatal(err)
	}
	syms := make([]symbolic.Symbol, batch)
	for i := range syms {
		syms[i] = symbolic.NewSymbol(i%table.K(), table.Level())
	}
	var sent int64
	appendBatch := func() (sealed bool) {
		// A batch seals the tail when it finds it full or overflows it.
		off := sent % server.BlockCap
		sealed = sent > 0 && (off == 0 || off+batch > server.BlockCap)
		if err := s.Append(sent*fixtureWindow, fixtureWindow, syms); err != nil {
			t.Fatal(err)
		}
		sent += batch
		return sealed
	}
	// Warm the session's frame buffer and the server's decoder scratch up to
	// a block boundary: lcm(BlockCap, batch) = 1536 points.
	for range 1536 / batch {
		appendBatch()
	}
	n, measured := inBlockMallocs(runs, appendBatch)
	if n != 0 {
		t.Fatalf("Session.Append round trip inside a block made %d mallocs over %d runs, want 0", n, measured)
	}
}

// TestClientClosePoisons checks a closed client fails fast instead of
// writing to a dead connection.
func TestClientClosePoisons(t *testing.T) {
	addr, _ := startFixture(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(1, 0, 10); err == nil {
		t.Fatal("query on closed client succeeded")
	}
}

// TestSetTimeoutZeroClearsDeadline checks that SetTimeout(0) really disables
// the timeout: the deadline left by the last timed request must not outlive
// it and fail the next untimed request once it passes.
func TestSetTimeoutZeroClearsDeadline(t *testing.T) {
	c, _ := dialFixture(t)
	c.SetTimeout(30 * time.Millisecond)
	if _, err := c.Count(1, 0, fixtureEnd); err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(0)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Count(1, 0, fixtureEnd); err != nil {
		t.Fatalf("untimed request after SetTimeout(0): %v", err)
	}
}
