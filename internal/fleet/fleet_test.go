package fleet

import (
	"math"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
	"symmeter/pkg/client"
)

// startService listens on an ephemeral port and cleans up with the test.
func startService(t *testing.T, shards int) (*server.Service, string) {
	t.Helper()
	svc := server.New(server.Config{Shards: shards})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr.String()
}

// learned returns a table learned from vals at k=8.
func learned(t *testing.T, vals []float64) *symbolic.Table {
	t.Helper()
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// ramp returns evenly spaced values over [lo, lo+n*step).
func ramp(lo, step float64, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = lo + float64(i)*step
	}
	return vals
}

// streamRaw runs one meter against a live service: push every measurement,
// swapping in each later table before the measurement index it is keyed by,
// then flush. It returns the meter's stored state once its session is done.
func streamRaw(t *testing.T, svc *server.Service, addr string, window int64, batch int, tables map[int]*symbolic.Table, raw []timeseries.Point) server.MeterState {
	t.Helper()
	sess, err := client.DialSession(addr, 1, client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMeter(sess, tables[0], window, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range raw {
		if next, ok := tables[i]; ok && i > 0 {
			if err := m.updateTable(next); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.push(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.flush(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if !svc.AwaitSessions(1, 5*time.Second) {
		t.Fatal("session never completed")
	}
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	st, ok := svc.Store().Snapshot(1)
	if !ok {
		t.Fatal("meter missing from store")
	}
	return st
}

// TestGapStartsNewBatch: a batch carries consecutive windows only, so a data
// gap must start a new one — otherwise the server would reconstruct the
// windows after the gap at the wrong timestamps.
func TestGapStartsNewBatch(t *testing.T) {
	svc, addr := startService(t, 2)
	table := learned(t, ramp(0, 2, 512))
	// Two windows, a 50-second hole, two more windows.
	var raw []timeseries.Point
	for _, ts := range []int64{0, 5, 10, 15, 70, 75, 80, 85} {
		raw = append(raw, timeseries.Point{T: ts, V: 500})
	}
	st := streamRaw(t, svc, addr, 10, 100, map[int]*symbolic.Table{0: table}, raw)
	// Windows: [0,10) [10,20) [70,80) [80,90) → T = 10,20,80,90.
	wantT := []int64{10, 20, 80, 90}
	if len(st.Points) != len(wantT) {
		t.Fatalf("points = %d, want %d", len(st.Points), len(wantT))
	}
	for i, w := range wantT {
		if st.Points[i].T != w {
			t.Fatalf("T[%d] = %d, want %d", i, st.Points[i].T, w)
		}
	}
}

// TestTableUpdateMidStream: a table update flushes the windows encoded
// under the old table first, and the server applies the right table to each
// side of the update.
func TestTableUpdateMidStream(t *testing.T) {
	svc, addr := startService(t, 2)
	table := learned(t, ramp(0, 2, 512))
	// New table with a different range (drifted data).
	table2 := learned(t, ramp(4000, 10, 128))
	var raw []timeseries.Point
	for i := int64(0); i < 200; i++ {
		v := 100.0
		if i >= 100 {
			v = 4500
		}
		raw = append(raw, timeseries.Point{T: i, V: v})
	}
	st := streamRaw(t, svc, addr, 10, 4, map[int]*symbolic.Table{0: table, 100: table2}, raw)
	if len(st.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(st.Tables))
	}
	// Twenty windows, none lost to the update: the window [90,100) was still
	// open when the new table arrived and went out first, under the old one.
	if len(st.Points) != 20 || st.Points[9].T != 100 {
		t.Fatalf("%d points, 10th at t=%d; want 20, the 10th at t=100", len(st.Points), st.Points[9].T)
	}
	// Early points decode near 100, late points near 4500: the reader must
	// apply the right table per segment.
	if st.Points[0].T != 10 {
		t.Fatalf("first point at t=%d, want 10", st.Points[0].T)
	}
	early, late := st.Points[9].V, st.Points[len(st.Points)-1].V
	if math.Abs(early-100) > 100 {
		t.Fatalf("early reconstruction = %v, want ~100", early)
	}
	if math.Abs(late-4500) > 300 {
		t.Fatalf("late reconstruction = %v, want ~4500", late)
	}
}

// TestFleet64ConcurrentMeters drives 64 simultaneous meters over real TCP
// — the concurrency acceptance test; run under -race.
func TestFleet64ConcurrentMeters(t *testing.T) {
	const meters = 64
	svc, addr := startService(t, 8)
	rep, err := Run(addr, Config{
		Meters:        meters,
		Days:          1,
		SecondsPerDay: 600,
		Window:        60,
		Seed:          1,
		DisableGaps:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitSessions(t, svc, meters)

	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	store, got := svc.Store(), 0
	for s := range store.NumShards() {
		got += len(store.ShardMeters(s))
	}
	if got != meters {
		t.Fatalf("store meters = %d, want %d", got, meters)
	}
	wantSymbols := 600 / 60 // gap-free prefix → one symbol per full window
	for _, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
		if m.Sent != 600 {
			t.Fatalf("meter %d sent %d, want 600", m.MeterID, m.Sent)
		}
		if m.Acked != wantSymbols {
			t.Fatalf("meter %d acked %d symbols, want %d", m.MeterID, m.Acked, wantSymbols)
		}
		if m.MAE <= 0 || math.IsInf(m.MAE, 0) || math.IsNaN(m.MAE) {
			t.Fatalf("meter %d MAE = %v", m.MeterID, m.MAE)
		}
	}
	st := svc.Stats()
	if st.Symbols != int64(meters*wantSymbols) {
		t.Fatalf("service symbols = %d, want %d", st.Symbols, meters*wantSymbols)
	}
	if st.Sessions != meters || st.Active != 0 {
		t.Fatalf("sessions = %d active = %d", st.Sessions, st.Active)
	}
	if st.BytesIn == 0 {
		t.Fatal("no bytes counted on the wire")
	}
}

// TestFleetRelearnMidStream exercises concurrent mid-stream table updates
// (tables between symbol batches) across overlapping sessions.
func TestFleetRelearnMidStream(t *testing.T) {
	svc, addr := startService(t, 4)
	rep, err := Run(addr, Config{
		Meters:        8,
		Days:          3,
		SecondsPerDay: 600,
		Window:        60,
		Seed:          3,
		RelearnPerDay: true,
		DisableGaps:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitSessions(t, svc, 8)
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	for _, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
		st, ok := svc.Store().Snapshot(m.MeterID)
		if !ok {
			t.Fatalf("meter %d missing from store", m.MeterID)
		}
		if len(st.Tables) != 3 { // initial + one relearn per non-final day
			t.Fatalf("meter %d tables = %d, want 3", m.MeterID, len(st.Tables))
		}
		if len(st.Points) != m.Acked {
			t.Fatalf("meter %d stored %d points, acked %d", m.MeterID, len(st.Points), m.Acked)
		}
	}
}

// recorder is a sink that keeps what a meter sent, expanding each batch to
// its points' timestamps the way the server does.
type recorder struct {
	points []symbolic.SymbolPoint
}

func (r *recorder) PushTable(*symbolic.Table) error { return nil }

func (r *recorder) Append(firstT, window int64, symbols []symbolic.Symbol) error {
	for i, s := range symbols {
		r.points = append(r.points, symbolic.SymbolPoint{T: firstT + int64(i)*window, S: s})
	}
	return nil
}

// awaitSessions waits until n ingest sessions have run and none is active.
func awaitSessions(t *testing.T, svc *server.Service, n int64) {
	t.Helper()
	if !svc.AwaitSessions(n, 10*time.Second) {
		t.Fatalf("%d sessions did not finish", n)
	}
}

// TestFleetGapsRelearnBitExact runs the generator with its missing-data
// simulation on and a table relearn per day — gaps split batches, relearns
// flush partial windows — and requires every meter's stored stream to be its
// encoder's output bit-exact: the same timestamps, the same symbol indexes,
// and one table per streamed day. The reference stream is the same meter
// replayed into a recorder, which must also report the same acked count and
// sensor-side MAE as the run over TCP.
func TestFleetGapsRelearnBitExact(t *testing.T) {
	const days = 3
	svc, addr := startService(t, 4)
	cfg := Config{
		Meters:        8,
		Days:          days,
		BatchSize:     16,
		Seed:          5,
		RelearnPerDay: true,
	}
	rep, err := Run(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	awaitSessions(t, svc, int64(len(rep.Meters)))
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	gappy := false
	for i, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
		var rec recorder
		want := MeterReport{MeterID: m.MeterID}
		if err := streamMeter(&rec, int64(i), cfg.withDefaults(), &want); err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Fatalf("meter %d over TCP reported %+v, replayed locally %+v", m.MeterID, m, want)
		}
		st, ok := svc.Store().Snapshot(m.MeterID)
		if !ok {
			t.Fatalf("meter %d missing from store", m.MeterID)
		}
		if len(st.Tables) != days {
			t.Fatalf("meter %d tables = %d, want %d", m.MeterID, len(st.Tables), days)
		}
		if len(st.Points) != len(rec.points) || len(st.Points) != m.Acked {
			t.Fatalf("meter %d stored %d points, encoded %d, acked %d", m.MeterID, len(st.Points), len(rec.points), m.Acked)
		}
		for i, want := range rec.points {
			got := st.Points[i]
			if got.T != want.T || got.S.Index() != want.S.Index() || got.S.Level() != want.S.Level() {
				t.Fatalf("meter %d point %d: stored T=%d symbol %d, encoded T=%d symbol %d",
					m.MeterID, i, got.T, got.S.Index(), want.T, want.S.Index())
			}
			// A jump of more than one window inside a day is a gap (a window
			// ending at midnight still belongs to the day before).
			if prev := st.Points[max(i-1, 0)].T; got.T-prev > 900 && (got.T-1)/86400 == (prev-1)/86400 {
				gappy = true
			}
		}
	}
	if !gappy {
		t.Fatal("fixture has no gaps: the batching rule went unexercised")
	}
}
