package symbolic

import (
	"fmt"
	"math"

	"symmeter/internal/timeseries"
)

// AdaptiveEncoder implements the paper's §4 extension: "when the consumer
// consumption pattern changes drastically, e.g., due to seasonal change, or
// having an additional family member, on the fly symbol table modification
// could be useful."
//
// It wraps the online Encoder with drift detection: an exponentially
// smoothed baseline of the per-evaluation-window symbol histograms tracks
// "normal" behaviour, and each new window's histogram is compared to it
// with the Jensen–Shannon divergence (bounded in [0,1] bits, robust to
// empty bins). Smoothing matters: a single day's histogram is noisy —
// occupancy swings would masquerade as drift and churn the table. When the
// divergence exceeds Threshold for Patience consecutive windows, the table
// is relearned from a sliding buffer of recent window averages — the values
// the sensor still has before quantisation — and a TableUpdate is emitted,
// the event a sensor would use to resend its lookup table (§2: "rebuilding
// and resending the lookup table periodically or if the distribution of the
// data changes too much").
type AdaptiveEncoder struct {
	cfg AdaptiveConfig

	enc     *Encoder
	method  Method
	k       int
	updates int

	// buffer holds recent true window averages for relearning.
	buffer []float64
	// counts is the symbol histogram of the current evaluation window.
	counts  []int
	emitted int
	// baseline is the calibrated histogram (probabilities); nil until the
	// first evaluation window completes.
	baseline []float64
	// drifted counts consecutive evaluation windows above the threshold;
	// relearning requires Patience of them, so ordinary day-to-day
	// variation (occupancy swings) does not churn the table.
	drifted int
}

// AdaptiveConfig controls drift detection and relearning.
type AdaptiveConfig struct {
	// Window is the vertical aggregation in seconds.
	Window int64
	// BufferSize is how many recent window averages are kept for
	// relearning (default 960: ten days of 15-minute windows — enough that
	// a relearned table is not overfit to the last few days).
	BufferSize int
	// CheckEvery is how many symbols form one evaluation window
	// (default 96: one day of 15-minute windows).
	CheckEvery int
	// Threshold is the Jensen–Shannon divergence (bits, over the coarse
	// evaluation histogram) above which an evaluation window counts as
	// drifted (default 0.12).
	Threshold float64
	// Patience is how many consecutive drifted evaluation windows trigger a
	// relearn (default 3). Day-to-day occupancy swings produce isolated
	// drifted days; only sustained change should resend the table.
	Patience int
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.BufferSize <= 0 {
		c.BufferSize = 10 * 96
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 96
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.12
	}
	if c.Patience <= 0 {
		c.Patience = 3
	}
	return c
}

// TableUpdate reports a relearned table and when it took effect.
type TableUpdate struct {
	// At is the timestamp of the last symbol encoded with the old table.
	At int64
	// Table is the new lookup table.
	Table *Table
	// Divergence is the drift measure that triggered the update.
	Divergence float64
}

// NewAdaptiveEncoder wraps an initial table (learned from history with a
// recorded method) in drift-aware encoding.
func NewAdaptiveEncoder(initial *Table, cfg AdaptiveConfig) (*AdaptiveEncoder, error) {
	if initial == nil {
		return nil, fmt.Errorf("symbolic: adaptive encoder needs an initial table")
	}
	if initial.Method() == MethodNone {
		return nil, fmt.Errorf("symbolic: adaptive encoder needs a learned table (method recorded)")
	}
	cfg = cfg.withDefaults()
	bins := initial.K()
	if bins > 1<<evalLevel {
		bins = 1 << evalLevel
	}
	return &AdaptiveEncoder{
		cfg:    cfg,
		enc:    NewEncoder(initial, cfg.Window),
		method: initial.Method(),
		k:      initial.K(),
		counts: make([]int, bins),
	}, nil
}

// Table returns the current lookup table.
func (a *AdaptiveEncoder) Table() *Table { return a.enc.Table() }

// Updates returns how many times the table has been relearned.
func (a *AdaptiveEncoder) Updates() int { return a.updates }

// evalLevel is the histogram resolution used for drift detection: drift is
// measured on symbols coarsened to at most 2^evalLevel bins, because a
// day's worth of fine-grained (k=16) histogram is dominated by sampling
// noise, while structural change shows up at 4 bins just as clearly.
const evalLevel = 2

// Push feeds one raw measurement. When a vertical window completes, its
// symbol is returned with ok=true; when drift triggered a relearn, the
// update (affecting subsequent symbols) is returned as well.
func (a *AdaptiveEncoder) Push(p timeseries.Point) (sp SymbolPoint, ok bool, update *TableUpdate, err error) {
	sp, avg, ok, err := a.enc.PushWithValue(p)
	if err != nil || !ok {
		return sp, ok, nil, err
	}
	coarse := sp.S
	if coarse.Level() > evalLevel {
		coarse, _ = coarse.Coarsen(evalLevel)
	}
	a.counts[coarse.Index()]++
	a.emitted++
	a.buffer = append(a.buffer, avg)
	if len(a.buffer) > a.cfg.BufferSize {
		a.buffer = a.buffer[len(a.buffer)-a.cfg.BufferSize:]
	}
	if a.emitted >= a.cfg.CheckEvery {
		update = a.evaluate(sp.T)
	}
	return sp, true, update, nil
}

// evaluate closes an evaluation window: calibrate the baseline if missing,
// otherwise test for drift and relearn when it exceeds the threshold.
func (a *AdaptiveEncoder) evaluate(at int64) *TableUpdate {
	hist := normalise(a.counts)
	a.emitted = 0
	for i := range a.counts {
		a.counts[i] = 0
	}
	if a.baseline == nil {
		a.baseline = hist
		return nil
	}
	div := jensenShannon(hist, a.baseline)
	if div < a.cfg.Threshold {
		// Normal window: fold it into the smoothed baseline.
		const alpha = 0.2
		for i := range a.baseline {
			a.baseline[i] = (1-alpha)*a.baseline[i] + alpha*hist[i]
		}
		a.drifted = 0
		return nil
	}
	a.drifted++
	if a.drifted < a.cfg.Patience || len(a.buffer) < a.k*4 {
		return nil
	}
	newTable, err := Learn(a.method, a.buffer, a.k)
	if err != nil {
		return nil
	}
	a.enc = NewEncoder(newTable, a.cfg.Window)
	a.updates++
	a.baseline = nil // recalibrate against the new table
	a.drifted = 0
	return &TableUpdate{At: at, Table: newTable, Divergence: div}
}

func normalise(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// jensenShannon returns the JS divergence between two distributions in
// bits; it is symmetric and bounded by 1.
func jensenShannon(p, q []float64) float64 {
	var d float64
	for i := range p {
		m := (p[i] + q[i]) / 2
		if p[i] > 0 {
			d += 0.5 * p[i] * math.Log2(p[i]/m)
		}
		if q[i] > 0 {
			d += 0.5 * q[i] * math.Log2(q[i]/m)
		}
	}
	return d
}
