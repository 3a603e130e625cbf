package client_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"symmeter/internal/faultfs"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/pkg/client"
)

// degradedTable learns the shared k=16 table for the degraded-mode fixture.
func degradedTable(t *testing.T) *symbolic.Table {
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

// degradedSymbols is batch idx of the meter's stream: 96 symbols at a
// 15-minute cadence starting at firstT(idx).
func degradedSymbols(meterID uint64, idx int, table *symbolic.Table) []symbolic.Symbol {
	syms := make([]symbolic.Symbol, 96)
	for j := range syms {
		v := float64((int(meterID)*31 + idx*97 + j*13) % 4000)
		syms[j] = table.Encode(v)
	}
	return syms
}

func degradedFirstT(idx int) int64 { return int64(idx) * 96 * 900 }

// TestIngestDegradedEndToEnd is the acceptance round trip: a server whose
// data directory stops being writable keeps answering remote queries,
// refuses remote ingest with the typed client.ErrDegraded, and resumes
// durable ingest automatically once the directory is writable again — all
// through pkg/client over real TCP, with the result surviving a crash.
func TestIngestDegradedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	eng, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, Sync: storage.SyncOff, SegmentBytes: 64 << 10,
		FS: ffs, ProbeInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(server.Config{Store: eng.Store()})
	svc.SetIngest(eng)
	svc.SetQueryHandler(query.New(eng.Store()))
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	table := degradedTable(t)
	const meter = 42
	// A small retry budget: a refused operation gives up after a few quick
	// attempts and reports the server's typed verdict.
	cfg := client.SessionConfig{Backoff: client.Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 3}}

	// Phase 1: healthy durable ingest through the client library.
	s, err := client.DialSession(addr.String(), meter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(table); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 5; idx++ {
		if err := s.Append(degradedFirstT(idx), 900, degradedSymbols(meter, idx, table)); err != nil {
			t.Fatalf("healthy append %d: %v", idx, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("healthy session close: %v", err)
	}

	qc, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	base, err := qc.Aggregate(meter, 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if base.Count != 5*96 {
		t.Fatalf("baseline count %d, want %d", base.Count, 5*96)
	}

	// Phase 2: the data directory dies. Remote ingest must come back as the
	// typed ErrDegraded; remote queries on the SAME server keep answering,
	// bit-identical to before.
	ffs.SetFaults(
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", Sticky: true},
		faultfs.Fault{Op: faultfs.OpSync, Path: ".probe", Sticky: true},
	)
	tryIngest := func() error {
		s, err := client.DialSession(addr.String(), meter, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		// The handshake's mark proves the table is committed, so the session
		// resumes straight into batches: the batch is the refused write.
		return s.Append(degradedFirstT(5), 900, degradedSymbols(meter, 5, table))
	}
	err = tryIngest()
	if !errors.Is(err, client.ErrDegraded) {
		t.Fatalf("ingest on dead disk: got %v, want client.ErrDegraded", err)
	}
	// A second attempt is refused up front (the engine is now degraded) and
	// still reports the typed verdict through the wire.
	if err := tryIngest(); !errors.Is(err, client.ErrDegraded) {
		t.Fatalf("ingest while degraded: got %v, want client.ErrDegraded", err)
	}
	if n := svc.Stats().DegradedSessions; n == 0 {
		t.Error("server stats did not count the degraded sessions")
	}
	agg, err := qc.Aggregate(meter, 0, math.MaxInt64)
	if err != nil {
		t.Fatalf("query while degraded: %v", err)
	}
	if agg.Count != base.Count ||
		math.Float64bits(agg.Sum) != math.Float64bits(base.Sum) ||
		math.Float64bits(agg.Min) != math.Float64bits(base.Min) ||
		math.Float64bits(agg.Max) != math.Float64bits(base.Max) {
		t.Fatalf("degraded query drifted: %+v vs baseline %+v", agg, base)
	}

	// Phase 3: the disk comes back. The client's backoff retry rides out the
	// probe interval and lands the batch durably, no operator involved.
	ffs.SetFaults()
	retry := client.Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond, Attempts: 200}
	if err := retry.Retry(tryIngest); err != nil {
		t.Fatalf("retry after disk recovery: %v", err)
	}
	after, err := qc.Aggregate(meter, 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != 6*96 {
		t.Fatalf("count after resumed ingest: %d, want %d", after.Count, 6*96)
	}
	h := eng.Health()
	if h.State != storage.StateHealthy || h.Heals == 0 || h.WALGen == 0 {
		t.Fatalf("engine did not heal onto a fresh generation: %+v", h)
	}

	// Phase 4: "durable" was not a lie — crash the engine and recover
	// everything acked, including the post-heal batch on the new generation.
	qc.Close()
	svc.Close()
	eng.Abandon()
	re, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, Sync: storage.SyncOff, SegmentBytes: 64 << 10, FS: ffs,
	})
	if err != nil {
		t.Fatalf("recovery after degraded round trip: %v", err)
	}
	defer re.Close()
	rq := query.New(re.Store())
	got, ok := rq.Aggregate(meter, 0, math.MaxInt64)
	if !ok || got.Count != after.Count ||
		math.Float64bits(got.Sum) != math.Float64bits(after.Sum) ||
		math.Float64bits(got.Min) != math.Float64bits(after.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(after.Max) {
		t.Fatalf("recovered aggregate %+v (ok=%v), want %+v", got, ok, after)
	}
}

// TestBackoffStopsOnOtherErrors pins Backoff.Retry's contract: only the
// typed retryable refusals — degraded, overloaded, draining, busy — are
// worth waiting out; any other error — and success — returns immediately.
// Raw transport errors must NOT retry: outside a Session's reconnect
// handshake the caller cannot know whether the server committed the write.
func TestBackoffStopsOnOtherErrors(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := client.Backoff{Min: time.Millisecond, Attempts: 10}.Retry(func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("non-retryable error: %v after %d calls, want boom after 1", err, calls)
	}
	for _, sentinel := range []error{
		client.ErrDegraded, client.ErrOverloaded, client.ErrDraining, client.ErrMeterBusy,
	} {
		calls = 0
		err = client.Backoff{Min: time.Millisecond, Attempts: 10}.Retry(func() error {
			calls++
			if calls < 3 {
				return sentinel
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Fatalf("%v-then-success: %v after %d calls, want nil after 3", sentinel, err, calls)
		}
	}
	calls = 0
	err = client.Backoff{Min: time.Millisecond, Attempts: 4}.Retry(func() error {
		calls++
		return client.ErrDegraded
	})
	if !errors.Is(err, client.ErrDegraded) || calls != 4 {
		t.Fatalf("exhausted attempts: %v after %d calls, want ErrDegraded after 4", err, calls)
	}
	if !client.Retryable(client.ErrOverloaded) || client.Retryable(boom) || client.Retryable(nil) {
		t.Fatal("Retryable predicate drifted from the Backoff contract")
	}
}
