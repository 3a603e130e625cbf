// Package fleet simulates a fleet of smart meters streaming to an
// aggregation server over real TCP — the load generator behind cmd/serve's
// demo and the server's concurrency tests. Each simulated meter learns its
// lookup table from training days of synthetic data (internal/dataset), then
// encodes its live days window by window and sends the symbols through its
// own pkg/client Session, the same sequenced, acknowledged ingest path any
// real sensor takes.
package fleet

import (
	"fmt"
	"math"
	"sync"

	"symmeter/internal/dataset"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
	"symmeter/pkg/client"
)

// Config describes a simulated meter fleet.
type Config struct {
	// Meters is the number of concurrent sensors (required, ≥ 1).
	Meters int
	// Days of live data each meter streams after its training days.
	Days int
	// TrainDays of history each meter learns its table from (default 2,
	// the paper's bootstrap).
	TrainDays int
	// SecondsPerDay caps how much of each day is used, both for training
	// and streaming (0 = the whole 86400-second day). Benchmarks use this
	// to trade realism for wall-clock.
	SecondsPerDay int64
	// Window is the vertical segmentation window in seconds (default 900).
	Window int64
	// K is the alphabet size (default 16).
	K int
	// BatchSize is the most symbols one 'D' frame carries (default 96).
	BatchSize int
	// Seed offsets each meter's synthetic generator; meter i uses Seed+i.
	Seed int64
	// RelearnPerDay rebuilds the table from each finished day and resends
	// it mid-stream (the §2.2 adaptive path) — exercises table updates under
	// concurrent load.
	RelearnPerDay bool
	// DisableGaps turns off the generator's missing-data simulation.
	DisableGaps bool
}

func (c Config) withDefaults() Config {
	if c.TrainDays <= 0 {
		c.TrainDays = 2
	}
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Window <= 0 {
		c.Window = 900
	}
	if c.K <= 0 {
		c.K = 16
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 96
	}
	return c
}

// MeterReport is one meter's end-to-end outcome.
type MeterReport struct {
	MeterID uint64
	// Sent is the raw measurements pushed into the meter's encoder.
	Sent int
	// Symbols is how many reconstructed points the server stored (filled
	// by Evaluate).
	Symbols int
	// Matched is how many of those aligned with a ground-truth window
	// (filled by Evaluate).
	Matched int
	// MAE is the mean absolute error in watts between the server's
	// reconstruction and the true window averages (filled by Evaluate).
	MAE float64
	// Err is the sensor-side failure, nil on success.
	Err error
	// Connected reports whether the meter's session dial succeeded — even a
	// meter that later failed mid-stream produced a server-side session, so
	// drivers waiting for sessions (Service.AwaitSessions) must count
	// connected meters, not successful ones.
	Connected bool

	// sent is every window the meter encoded, in order: the time and
	// symbol it sent, with the window's true average as V.
	sent []server.ReconPoint
}

// Report aggregates a fleet run.
type Report struct {
	Meters []MeterReport
	// Sent is total raw measurements across the fleet.
	Sent int
}

// Run dials addr once per meter and streams each meter's data over its own
// session, all concurrently. It returns when every meter has closed its
// session; drain the service before evaluating.
func Run(addr string, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Meters < 1 {
		return nil, fmt.Errorf("fleet: needs at least one meter, got %d", cfg.Meters)
	}
	rep := &Report{Meters: make([]MeterReport, cfg.Meters)}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Meters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep.Meters[i] = runMeter(addr, uint64(i+1), int64(i), cfg)
		}(i)
	}
	wg.Wait()
	for i := range rep.Meters {
		rep.Sent += rep.Meters[i].Sent
	}
	return rep, nil
}

// dayPoints returns day d of the meter's series, capped to the configured
// seconds-per-day prefix.
func dayPoints(gen *dataset.Generator, d int, cap int64) []timeseries.Point {
	day := gen.HouseDay(0, d)
	pts := day.Points
	if cap <= 0 {
		return pts
	}
	limit := day.Start() + cap
	for i, p := range pts {
		if p.T >= limit {
			return pts[:i]
		}
	}
	return pts
}

func runMeter(addr string, id uint64, seedOff int64, cfg Config) MeterReport {
	rep := MeterReport{MeterID: id}
	fail := func(err error) MeterReport { rep.Err = err; return rep }

	gen := dataset.New(dataset.Config{
		Seed:        cfg.Seed + seedOff,
		Houses:      1,
		Days:        cfg.TrainDays + cfg.Days,
		DisableGaps: cfg.DisableGaps,
	})

	var builder symbolic.TableBuilder
	for d := 0; d < cfg.TrainDays; d++ {
		for _, p := range dayPoints(gen, d, cfg.SecondsPerDay) {
			builder.Push(p.V)
		}
	}
	table, err := builder.Build(symbolic.MethodMedian, cfg.K)
	if err != nil {
		return fail(err)
	}

	sess, err := client.DialSession(addr, id, client.SessionConfig{})
	if err != nil {
		return fail(err)
	}
	rep.Connected = true
	defer sess.Close()
	m, err := newMeter(sess, table, cfg.Window, cfg.BatchSize)
	if err != nil {
		return fail(err)
	}
	for d := cfg.TrainDays; d < cfg.TrainDays+cfg.Days; d++ {
		pts := dayPoints(gen, d, cfg.SecondsPerDay)
		var dayVals []float64
		for _, p := range pts {
			if err := m.push(p); err != nil {
				return fail(err)
			}
			rep.Sent++
			if cfg.RelearnPerDay {
				dayVals = append(dayVals, p.V)
			}
		}
		if cfg.RelearnPerDay && d < cfg.TrainDays+cfg.Days-1 && len(dayVals) > 0 {
			next, err := symbolic.Learn(symbolic.MethodMedian, dayVals, cfg.K)
			if err != nil {
				return fail(err)
			}
			if err := m.updateTable(next); err != nil {
				return fail(err)
			}
		}
	}
	if err := m.flush(); err != nil {
		return fail(err)
	}
	rep.sent = m.sent
	return rep
}

// meter is one simulated sensor's encode-and-batch loop. A single encoder
// yields both the symbol sent for each window and the window's true average,
// so the ground truth shares the sent stream's window alignment by
// construction. Symbols are sent in batches of consecutive windows only — a
// data gap starts a new batch, so the server reconstructs every timestamp as
// firstT + i*window — of at most batchSize symbols; the partial window is
// flushed before a table update and at the end, so no window straddles two
// tables. Every table and batch goes out through the meter's Session, which
// returns once the server acknowledged it.
type meter struct {
	out       *client.Session
	enc       *symbolic.Encoder
	window    int64
	batchSize int

	batch         []symbolic.Symbol
	firstT, nextT int64
	sent          []server.ReconPoint
}

// newMeter sends the first table and returns the meter ready to push.
func newMeter(out *client.Session, table *symbolic.Table, window int64, batchSize int) (*meter, error) {
	m := &meter{out: out, window: window, batchSize: batchSize}
	if err := m.setTable(table); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *meter) setTable(t *symbolic.Table) error {
	if err := m.out.PushTable(t); err != nil {
		return err
	}
	m.enc = symbolic.NewEncoder(t, m.window)
	return nil
}

// push feeds one measurement; a completed window joins the pending batch.
func (m *meter) push(p timeseries.Point) error {
	sp, avg, ok, err := m.enc.PushWithValue(p)
	if err != nil || !ok {
		return err
	}
	return m.add(sp, avg)
}

func (m *meter) add(sp symbolic.SymbolPoint, avg float64) error {
	m.sent = append(m.sent, server.ReconPoint{T: sp.T, S: sp.S, V: avg})
	if len(m.batch) > 0 && sp.T != m.nextT {
		if err := m.sendBatch(); err != nil {
			return err
		}
	}
	if len(m.batch) == 0 {
		m.firstT = sp.T
	}
	m.batch = append(m.batch, sp.S)
	m.nextT = sp.T + m.window
	if len(m.batch) >= m.batchSize {
		return m.sendBatch()
	}
	return nil
}

// sendBatch sends the pending batch, if any.
func (m *meter) sendBatch() error {
	if len(m.batch) == 0 {
		return nil
	}
	err := m.out.Append(m.firstT, m.window, m.batch)
	m.batch = m.batch[:0]
	return err
}

// flush closes the partial window and sends everything pending.
func (m *meter) flush() error {
	if sp, avg, ok := m.enc.FlushWithValue(); ok {
		if err := m.add(sp, avg); err != nil {
			return err
		}
	}
	return m.sendBatch()
}

// updateTable resends a new lookup table (the §2/§4 adaptive path) after
// flushing every window encoded under the old one.
func (m *meter) updateTable(t *symbolic.Table) error {
	if err := m.flush(); err != nil {
		return err
	}
	return m.setTable(t)
}

// Evaluate fills each MeterReport's server-side fields from the store:
// symbol counts and the reconstruction MAE against the meter's true window
// averages, matched by timestamp.
func (r *Report) Evaluate(store *server.Store) {
	for i := range r.Meters {
		m := &r.Meters[i]
		st, ok := store.Snapshot(m.MeterID)
		if !ok {
			continue
		}
		m.Symbols = len(st.Points)
		var sum float64
		j := 0
		for _, tp := range m.sent {
			for j < len(st.Points) && st.Points[j].T < tp.T {
				j++
			}
			if j < len(st.Points) && st.Points[j].T == tp.T {
				sum += math.Abs(tp.V - st.Points[j].V)
				m.Matched++
				j++
			}
		}
		if m.Matched > 0 {
			m.MAE = sum / float64(m.Matched)
		}
	}
}
