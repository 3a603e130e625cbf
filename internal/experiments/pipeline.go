// Package experiments wires the substrates into the paper's evaluation
// pipeline and regenerates every table and figure of §3: the synthetic
// REDD-like dataset feeds per-house (or global) lookup-table learning from
// two days of history, day-vectors are built at 15-minute and 1-hour
// aggregation, and the ml classifiers are scored with 10-fold
// cross-validated weighted F-measure (classification) or MAE (forecasting).
package experiments

import (
	"fmt"
	"math"
	"sync"

	"symmeter/internal/dataset"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
)

// Window constants used by the paper.
const (
	Window15m = 900
	Window1h  = 3600
	// WindowRaw1s marks un-aggregated 1 Hz vectors (the "raw 1sec" row).
	WindowRaw1s = 1
)

// Alphabets lists the alphabet sizes the paper sweeps (2 to 16, powers of 2).
var Alphabets = []int{2, 4, 8, 16}

// Windows lists the aggregation lengths the paper uses.
var Windows = []int64{Window1h, Window15m}

// Config parameterises the pipeline.
type Config struct {
	// Seed drives the synthetic dataset.
	Seed int64
	// Houses and Days size the dataset (defaults 6 and 24).
	Houses, Days int
	// TrainDays is how many leading days feed the separator statistics
	// (the paper uses the first two days).
	TrainDays int
	// CoverageThreshold is the paper's "enough data" bar in seconds of
	// coverage per day (default 20 h).
	CoverageThreshold int64
	// DisableGaps turns off missing-data simulation (for tests that need
	// every day eligible).
	DisableGaps bool
}

func (c Config) withDefaults() Config {
	if c.Houses <= 0 {
		c.Houses = 6
	}
	if c.Days <= 0 {
		c.Days = 24
	}
	if c.TrainDays <= 0 {
		c.TrainDays = 2
	}
	if c.CoverageThreshold <= 0 {
		c.CoverageThreshold = 20 * 3600
	}
	return c
}

// DayVector is one day of one house aggregated at a fixed window: the raw
// day-vector the classification experiments consume. Slots with no data are
// NaN.
type DayVector struct {
	House int
	Day   int
	// Values has 86400/window entries.
	Values []float64
}

// Pipeline generates the dataset once and caches everything the experiment
// runners need.
type Pipeline struct {
	cfg Config
	gen *dataset.Generator

	mu sync.Mutex
	// trainValues[h] holds the raw 1 Hz values of house h's training days.
	trainValues [][]float64
	// vectors[window] holds eligible day-vectors for all houses.
	vectors map[int64][]DayVector
	// tables caches learned lookup tables.
	tables map[tableKey]*symbolic.Table
	built  bool
}

type tableKey struct {
	method symbolic.Method
	k      int
	house  int // -1 for the global (single) table
}

// NewPipeline returns an unbuilt pipeline.
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	return &Pipeline{
		cfg: cfg,
		gen: dataset.New(dataset.Config{
			Seed: cfg.Seed, Houses: cfg.Houses, Days: cfg.Days,
			DisableGaps: cfg.DisableGaps,
		}),
		vectors: make(map[int64][]DayVector),
		tables:  make(map[tableKey]*symbolic.Table),
	}
}

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Generator exposes the underlying dataset generator (for figure runners).
func (p *Pipeline) Generator() *dataset.Generator { return p.gen }

// Build generates every house-day once, accumulating training statistics
// and day-vectors for the requested windows. Build is idempotent for
// windows already built.
func (p *Pipeline) Build(windows ...int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var missing []int64
	for _, w := range windows {
		if _, ok := p.vectors[w]; !ok {
			missing = append(missing, w)
		}
	}
	if p.built && len(missing) == 0 {
		return nil
	}
	for _, w := range missing {
		if w <= 0 || timeseries.SecondsPerDay%w != 0 {
			return fmt.Errorf("experiments: window %d must divide a day", w)
		}
		p.vectors[w] = nil
	}
	if !p.built {
		p.trainValues = make([][]float64, p.cfg.Houses)
	}

	for h := 0; h < p.cfg.Houses; h++ {
		for d := 0; d < p.cfg.Days; d++ {
			day := p.gen.HouseDay(h, d)
			if !p.built && d < p.cfg.TrainDays {
				for _, pt := range day.Points {
					p.trainValues[h] = append(p.trainValues[h], pt.V)
				}
			}
			if p.coverage(day) < p.cfg.CoverageThreshold {
				continue
			}
			for _, w := range missing {
				p.vectors[w] = append(p.vectors[w], DayVector{
					House:  h,
					Day:    d,
					Values: dayVector(day, w),
				})
			}
		}
	}
	p.built = true
	return nil
}

// coverage counts seconds with data in a one-day series.
func (p *Pipeline) coverage(day *timeseries.Series) int64 {
	return int64(day.Len()) // 1 Hz generation: one point per covered second
}

// dayVector aggregates one day into 86400/window slots, NaN where the slot
// has no data.
func dayVector(day *timeseries.Series, window int64) []float64 {
	slots := int(timeseries.SecondsPerDay / window)
	sums := make([]float64, slots)
	counts := make([]int, slots)
	if !day.Empty() {
		dayStart := day.Start() - mod64(day.Start(), timeseries.SecondsPerDay)
		for _, pt := range day.Points {
			s := int((pt.T - dayStart) / window)
			if s >= 0 && s < slots {
				sums[s] += pt.V
				counts[s]++
			}
		}
	}
	out := make([]float64, slots)
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

func mod64(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Vectors returns the eligible day-vectors at the given window, building if
// needed.
func (p *Pipeline) Vectors(window int64) ([]DayVector, error) {
	if err := p.Build(window); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vectors[window], nil
}

// Table returns the lookup table for (method, k) learned from house h's
// training days; pass house = -1 for the single global table learned from
// all houses' training days pooled (the paper's "+" variants).
func (p *Pipeline) Table(method symbolic.Method, k, house int) (*symbolic.Table, error) {
	if err := p.Build(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := tableKey{method: method, k: k, house: house}
	if t, ok := p.tables[key]; ok {
		return t, nil
	}
	var values []float64
	if house >= 0 {
		if house >= p.cfg.Houses {
			return nil, fmt.Errorf("experiments: house %d out of range", house)
		}
		values = p.trainValues[house]
	} else {
		for _, vs := range p.trainValues {
			values = append(values, vs...)
		}
	}
	t, err := symbolic.Learn(method, values, k)
	if err != nil {
		return nil, fmt.Errorf("experiments: learn %s k=%d house=%d: %w", method, k, house, err)
	}
	p.tables[key] = t
	return t, nil
}

// HouseNames returns the class labels ("house1", ...).
func (p *Pipeline) HouseNames() []string {
	names := make([]string, p.cfg.Houses)
	for h := range names {
		names[h] = fmt.Sprintf("house%d", h+1)
	}
	return names
}
