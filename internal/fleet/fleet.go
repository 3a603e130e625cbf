// Package fleet simulates a fleet of smart meters streaming to an
// aggregation server over real TCP — the load generator behind the
// examples/fleet demo client. Each simulated meter learns its lookup table
// from training days of synthetic data (internal/dataset), then encodes its
// live days window by window and sends the symbols through its own
// pkg/client Session, the same sequenced, acknowledged ingest path any real
// sensor takes.
package fleet

import (
	"fmt"
	"math"
	"sync"

	"symmeter/internal/dataset"
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
	// Acked is how many symbols the server acknowledged: each one is
	// committed exactly once.
	Acked int
	// MAE is the mean absolute error in watts between each encoded window's
	// true average and its symbol's reconstruction value — the error of the
	// server's reconstruction, computed where the paper puts it, at the
	// sensor.
	MAE float64
	// Err is the sensor-side failure, nil on success.
	Err error
}

// Report aggregates a fleet run.
type Report struct {
	Meters []MeterReport
	// Sent is total raw measurements across the fleet.
	Sent int
}

// Run dials addr once per meter and streams each meter's data over its own
// session, all concurrently. It returns when every meter has closed its
// session; every symbol a meter counts as acked is committed by then.
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
	sess, err := client.DialSession(addr, id, client.SessionConfig{})
	if err != nil {
		rep.Err = err
		return rep
	}
	defer sess.Close()
	rep.Err = streamMeter(sess, seedOff, cfg, &rep)
	return rep
}

// streamMeter learns one meter's table from its training days and streams
// its live days to out, filling rep's sensor-side counts as it goes.
func streamMeter(out sink, seedOff int64, cfg Config, rep *MeterReport) error {
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
		return err
	}
	m, err := newMeter(out, table, cfg.Window, cfg.BatchSize)
	if err != nil {
		return err
	}
	defer func() {
		rep.Acked = m.acked
		if m.encoded > 0 {
			rep.MAE = m.absErr / float64(m.encoded)
		}
	}()
	for d := cfg.TrainDays; d < cfg.TrainDays+cfg.Days; d++ {
		pts := dayPoints(gen, d, cfg.SecondsPerDay)
		var dayVals []float64
		for _, p := range pts {
			if err := m.push(p); err != nil {
				return err
			}
			rep.Sent++
			if cfg.RelearnPerDay {
				dayVals = append(dayVals, p.V)
			}
		}
		if cfg.RelearnPerDay && d < cfg.TrainDays+cfg.Days-1 && len(dayVals) > 0 {
			next, err := symbolic.Learn(symbolic.MethodMedian, dayVals, cfg.K)
			if err != nil {
				return err
			}
			if err := m.updateTable(next); err != nil {
				return err
			}
		}
	}
	return m.flush()
}

// sink is where a meter's tables and batches go: in Run its pkg/client
// Session, whose calls return once the server acknowledged them; in tests a
// recorder of the stream the meter produced.
type sink interface {
	PushTable(t *symbolic.Table) error
	Append(firstT, window int64, symbols []symbolic.Symbol) error
}

// meter is one simulated sensor's encode-and-batch loop. A single encoder
// yields both the symbol sent for each window and the window's true average,
// so the meter accumulates its reconstruction error as it encodes. Symbols
// are sent in batches of consecutive windows only — a data gap starts a new
// batch, so the server reconstructs every timestamp as firstT + i*window — of
// at most batchSize symbols; the partial window is flushed before a table
// update and at the end, so no window straddles two tables.
type meter struct {
	out       sink
	enc       *symbolic.Encoder
	values    []float64 // the current table's reconstruction values
	window    int64
	batchSize int

	batch         []symbolic.Symbol
	firstT, nextT int64

	// encoded counts the windows encoded and absErr sums |window average −
	// reconstruction value| over them; acked counts the symbols the sink
	// accepted.
	encoded, acked int
	absErr         float64
}

// newMeter sends the first table and returns the meter ready to push.
func newMeter(out sink, table *symbolic.Table, window int64, batchSize int) (*meter, error) {
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
	m.values = t.ReconstructionValues()
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
	m.encoded++
	m.absErr += math.Abs(avg - m.values[sp.S.Index()])
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
	if err == nil {
		m.acked += len(m.batch)
	}
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
