// Package dataset generates a synthetic smart-meter dataset standing in for
// REDD (Kolter & Johnson, 2011), which the paper evaluates on but which is
// not redistributable. The generator reproduces the properties the paper's
// experiments depend on:
//
//   - 1 Hz house-level power, obtained by summing two mains channels;
//   - log-normal marginal distribution of power levels (paper Fig. 2);
//   - strong diurnal structure (day/night) and weekday/weekend variation;
//   - per-house distinctive appliance fleets and consumption levels, so that
//     day-vectors are classifiable by house;
//   - missing-data gaps, with one chronically gappy house (the paper skips
//     house 5 in forecasting "because there is not enough data").
//
// Generation is deterministic: (Seed, house, day) fully determine a day of
// data, so experiments are reproducible and days can be generated lazily
// without holding months of 1 Hz data in memory.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"symmeter/internal/timeseries"
)

// DefaultHouses is the number of houses in REDD and in the default config.
const DefaultHouses = 6

// SecondsPerDay mirrors timeseries.SecondsPerDay for local arithmetic.
const secondsPerDay = timeseries.SecondsPerDay

// Config parameterises the generator.
type Config struct {
	// Houses is the number of houses to simulate (default 6, like REDD).
	Houses int
	// Days is the number of days available per house (default 30).
	Days int
	// Seed makes the whole dataset deterministic.
	Seed int64
	// DisableGaps turns off missing-data simulation (useful in tests).
	DisableGaps bool
	// SeasonalAmplitude adds a slow sinusoidal modulation of the
	// weather-driven loads (HVAC) with the given relative amplitude
	// (0 disables it; 0.8 swings HVAC intensity by ±80% over a season).
	// This supports the paper's §4 seasonal-change study (the Irish CER
	// direction) and the adaptive lookup-table extension.
	SeasonalAmplitude float64
	// SeasonalPeriodDays is the season length (default 90 days).
	SeasonalPeriodDays int
	// ShiftDay, when positive, applies a lasting consumption change from
	// that day on — the paper's §4 "having an additional family member"
	// scenario for on-the-fly table modification.
	ShiftDay int
	// ShiftFactor scales the household's loads from ShiftDay on
	// (default 2 when ShiftDay is set).
	ShiftFactor float64
}

func (c Config) withDefaults() Config {
	if c.Houses <= 0 {
		c.Houses = DefaultHouses
	}
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.SeasonalPeriodDays <= 0 {
		c.SeasonalPeriodDays = 90
	}
	if c.ShiftDay > 0 && c.ShiftFactor <= 0 {
		c.ShiftFactor = 2
	}
	return c
}

// Generator produces the synthetic dataset.
type Generator struct {
	cfg      Config
	profiles []houseProfile
}

// New builds a generator; house profiles are drawn deterministically from
// cfg.Seed so the same seed always yields the same houses.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg}
	for h := 0; h < cfg.Houses; h++ {
		g.profiles = append(g.profiles, newHouseProfile(rand.New(rand.NewSource(mix(cfg.Seed, int64(h), -1)))))
	}
	// House index 4 ("house 5") is chronically gappy, mirroring REDD.
	if cfg.Houses >= 5 {
		g.profiles[4].gapProb = 0.95
		g.profiles[4].longGapProb = 0.8
	}
	return g
}

// Houses returns the number of houses.
func (g *Generator) Houses() int { return g.cfg.Houses }

// mix combines seed components into a new seed (splitmix64 finalizer).
func mix(parts ...int64) int64 {
	var z uint64 = 0x9E3779B97F4A7C15
	for _, p := range parts {
		z ^= uint64(p) * 0xBF58476D1CE4E5B9
		z ^= z >> 30
		z *= 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z & math.MaxInt64)
}

// appliance kinds.
type applianceKind int

const (
	kindStandby applianceKind = iota
	kindFridge
	kindHVAC
	kindLighting
	kindCooking
	kindLaundry
	kindKettle
	// kindRoutine is a timer-driven load (water heater, pool pump) firing at
	// fixed house-specific hours every day: the strong per-house temporal
	// signature that makes day-vectors classifiable by shape, not just level.
	kindRoutine
	// kindSpike is a rare very-high-power event (electric oven, dryer
	// element): it stretches the observed value range far beyond the bulk of
	// the distribution, which is what makes *uniform* separators waste most
	// symbols on nearly-empty bins (the paper's Fig. 2 log-normal tail).
	kindSpike
)

// appliance is one load in a house, assigned to a mains phase.
type appliance struct {
	kind  applianceKind
	phase int     // which mains channel (0 or 1) carries this load
	power float64 // nominal on-power in watts

	// Kind-specific parameters.
	onDur, offDur int       // fridge duty cycle (seconds)
	startHour     float64   // lighting/cooking anchor hour
	spanHours     float64   // lighting span
	eventsPerDay  float64   // kettle events
	dailyProb     float64   // laundry/HVAC engagement probability
	routineHours  []float64 // kindRoutine fire times (hours)
	routineDur    float64   // kindRoutine duration (hours)
}

// houseProfile is the set of appliances plus gap behaviour for one house.
type houseProfile struct {
	appliances  []appliance
	gapProb     float64 // probability a day contains any gap
	longGapProb float64 // probability a gappy day contains a >4 h outage
	noiseSigma  float64 // per-second multiplicative log-noise
}

// newHouseProfile draws a distinctive house. The parameter ranges are wide on
// purpose: classification in the paper works because houses differ in level
// and rhythm, and uses that contrast.
func newHouseProfile(rng *rand.Rand) houseProfile {
	// Houses differ strongly in scale (REDD-like), but the per-day
	// occupancy factor below swings each house's level by more than the
	// between-house gaps, so absolute level alone is a weak fingerprint —
	// the regime in which per-house quantile tables beat both raw values
	// and a single global table (paper Figs. 5–7).
	scale := 0.5 + rng.Float64()*2.0
	p := houseProfile{
		gapProb:     0.15 + rng.Float64()*0.15,
		longGapProb: 0.08,
		noiseSigma:  0.08 + rng.Float64()*0.10,
	}
	add := func(a appliance) { p.appliances = append(p.appliances, a) }

	add(appliance{kind: kindStandby, phase: 0,
		power: (60 + rng.Float64()*140) * scale})
	add(appliance{kind: kindFridge, phase: rng.Intn(2),
		power: (90 + rng.Float64()*110) * scale,
		onDur: 600 + rng.Intn(900), offDur: 1200 + rng.Intn(1800)})
	// Every house heats/cools something; sizes differ wildly. (Seasonal
	// modulation acts on this load, so it must exist everywhere.)
	add(appliance{kind: kindHVAC, phase: rng.Intn(2),
		power:     (400 + rng.Float64()*1600) * scale,
		dailyProb: 0.4 + rng.Float64()*0.5,
		onDur:     900 + rng.Intn(1800), offDur: 900 + rng.Intn(2700)})
	add(appliance{kind: kindLighting, phase: rng.Intn(2),
		power:     (80 + rng.Float64()*320) * scale,
		startHour: 16.5 + rng.Float64()*3.5, spanHours: 4 + rng.Float64()*3})
	add(appliance{kind: kindCooking, phase: rng.Intn(2),
		power:     (900 + rng.Float64()*1600) * scale,
		startHour: 17.5 + rng.Float64()*2.5})
	add(appliance{kind: kindLaundry, phase: rng.Intn(2),
		power:     (400 + rng.Float64()*1400) * scale,
		dailyProb: 0.15 + rng.Float64()*0.3})
	add(appliance{kind: kindKettle, phase: rng.Intn(2),
		power:        (800 + rng.Float64()*1400) * scale,
		eventsPerDay: 2 + rng.Float64()*8})
	// Two timer loads at house-specific fixed hours (e.g. water heater at
	// 05:40 and 21:10): the dominant shape signature.
	add(appliance{kind: kindRoutine, phase: rng.Intn(2),
		power:        (1000 + rng.Float64()*1500) * scale,
		routineHours: []float64{4 + rng.Float64()*4, 19 + rng.Float64()*4},
		routineDur:   0.5 + rng.Float64()*0.75})
	// Oven / dryer element: rare but huge, defining the range's far tail.
	add(appliance{kind: kindSpike, phase: rng.Intn(2),
		power:     (3500 + rng.Float64()*3000) * scale,
		dailyProb: 0.25 + rng.Float64()*0.25})
	return p
}

// weekend reports whether day index d is a Saturday/Sunday under the
// convention that day 0 is a Monday.
func weekend(d int) bool { m := d % 7; return m == 5 || m == 6 }

// HouseDay generates one day of 1 Hz total-load data for house h, day d,
// including gaps. Timestamps run [d*86400, (d+1)*86400).
func (g *Generator) HouseDay(h, d int) *timeseries.Series {
	m0, m1 := g.MainsDay(h, d)
	return timeseries.Sum(fmt.Sprintf("house%d", h+1), m0, m1)
}

// MainsDay generates the two mains channels for house h, day d. The paper
// uses "the total power consumption of the house, by summing the two main
// power time series"; exposing the channels separately lets tests and
// examples exercise that step.
func (g *Generator) MainsDay(h, d int) (*timeseries.Series, *timeseries.Series) {
	if h < 0 || h >= g.cfg.Houses {
		panic(fmt.Sprintf("dataset: house %d out of range [0,%d)", h, g.cfg.Houses))
	}
	prof := g.profiles[h]
	rng := rand.New(rand.NewSource(mix(g.cfg.Seed, int64(h), int64(d))))

	// Per-day occupancy/weather factor: variable loads swing by ±50% day to
	// day, like real households. This makes the daily *level* an unreliable
	// house fingerprint while the timer-driven *rhythms* stay stable — the
	// regime in which the paper's per-house quantile tables beat a single
	// global table (Fig. 7).
	dayFactor := math.Exp(rng.NormFloat64() * 0.45)
	if dayFactor < 0.35 {
		dayFactor = 0.35
	}
	if dayFactor > 2.8 {
		dayFactor = 2.8
	}

	// Per-phase load arrays for the day.
	var load [2][]float64
	load[0] = make([]float64, secondsPerDay)
	load[1] = make([]float64, secondsPerDay)
	// Standby drifts independently (chargers and gadgets come and go): a
	// stable night-time level would otherwise be an unrealistically clean
	// house fingerprint for raw-value classifiers.
	standbyFactor := math.Exp(rng.NormFloat64() * 0.25)

	// Seasonal modulation of weather-driven load (§4 seasonal change).
	season := 1.0
	if g.cfg.SeasonalAmplitude > 0 {
		season = 1 + g.cfg.SeasonalAmplitude*
			math.Sin(2*math.Pi*float64(d)/float64(g.cfg.SeasonalPeriodDays))
		if season < 0.05 {
			season = 0.05
		}
	}
	// Structural occupancy change (§4 "additional family member"): a
	// lasting multiplicative shift of the whole household from ShiftDay on.
	shift := 1.0
	if g.cfg.ShiftDay > 0 && d >= g.cfg.ShiftDay {
		shift = g.cfg.ShiftFactor
	}

	for _, a := range prof.appliances {
		scaled := a
		switch a.kind {
		case kindHVAC:
			scaled.power *= dayFactor * season
		case kindLighting:
			// Darker season, more lighting: a milder seasonal coupling.
			scaled.power *= dayFactor * (1 + 0.3*(season-1))
		case kindCooking, kindLaundry, kindKettle:
			scaled.power *= dayFactor
		case kindStandby:
			scaled.power *= standbyFactor
		}
		scaled.power *= shift
		addLoad(load[scaled.phase], scaled, rng, weekend(d))
	}

	// Multiplicative log-normal flicker gives the log-normal-ish marginal
	// (Fig. 2) and the fine-grained fluctuation residential load shows.
	sigma := prof.noiseSigma
	for p := 0; p < 2; p++ {
		for i := range load[p] {
			load[p][i] *= math.Exp(sigma * rng.NormFloat64())
		}
	}

	// Gaps: drop the same seconds from both phases (the meter is one device).
	var missing []bool
	if !g.cfg.DisableGaps {
		missing = gapMask(prof, rng)
	}

	start := int64(d) * secondsPerDay
	mk := func(p int) *timeseries.Series {
		pts := make([]timeseries.Point, 0, secondsPerDay)
		for i := 0; i < secondsPerDay; i++ {
			if missing != nil && missing[i] {
				continue
			}
			pts = append(pts, timeseries.Point{T: start + int64(i), V: load[p][i]})
		}
		return timeseries.MustNew(fmt.Sprintf("house%d/mains%d", h+1, p+1), pts)
	}
	return mk(0), mk(1)
}

// gapMask returns a per-second missing mask for the day, or nil when the day
// has no gaps.
func gapMask(prof houseProfile, rng *rand.Rand) []bool {
	if rng.Float64() >= prof.gapProb {
		return nil
	}
	mask := make([]bool, secondsPerDay)
	nGaps := 1 + rng.Intn(3)
	for i := 0; i < nGaps; i++ {
		dur := 120 + rng.Intn(1800) // 2 min .. 32 min
		begin := rng.Intn(secondsPerDay - dur)
		for s := begin; s < begin+dur; s++ {
			mask[s] = true
		}
	}
	if rng.Float64() < prof.longGapProb {
		dur := 4*3600 + rng.Intn(10*3600) // 4 h .. 14 h outage
		begin := rng.Intn(secondsPerDay - dur)
		for s := begin; s < begin+dur; s++ {
			mask[s] = true
		}
	}
	return mask
}

// addLoad renders one appliance's contribution into the per-second array.
func addLoad(load []float64, a appliance, rng *rand.Rand, isWeekend bool) {
	switch a.kind {
	case kindStandby:
		for i := range load {
			load[i] += a.power
		}
	case kindFridge:
		period := a.onDur + a.offDur
		phase := rng.Intn(period)
		for i := range load {
			if (i+phase)%period < a.onDur {
				load[i] += a.power
			}
		}
	case kindHVAC:
		// Engaged every day at a weather-like varying intensity — day-to-day
		// variation without the all-or-nothing swings that would make two
		// days of history unrepresentative (the paper's Fig. 4 shows the
		// statistics converging within a day).
		intensity := a.dailyProb * (0.5 + rng.Float64()*0.5)
		period := a.onDur + a.offDur
		phase := rng.Intn(period)
		for i := range load {
			hour := float64(i) / 3600
			duty := float64(a.onDur) * intensity
			if hour >= 8 && hour < 17 && !isWeekend {
				duty /= 2 // nobody home on weekdays
			}
			if float64((i+phase)%period) < duty {
				load[i] += a.power
			}
		}
	case kindLighting:
		start := a.startHour + rng.NormFloat64()*0.25
		span := a.spanHours + rng.NormFloat64()*0.5
		if isWeekend {
			span += 1.0 // later evenings
		}
		paint(load, start, start+span, a.power)
		// Morning lights.
		mStart := 6.5 + rng.NormFloat64()*0.3
		if isWeekend {
			mStart += 1.5 // sleeping in
		}
		paint(load, mStart, mStart+1.0, a.power*0.6)
	case kindCooking:
		// Dinner nearly every day; breakfast/lunch events with weekend shift.
		dinner := a.startHour + rng.NormFloat64()*0.3
		paint(load, dinner, dinner+0.4+rng.Float64()*0.4, a.power)
		if rng.Float64() < 0.7 {
			b := 7.0 + rng.NormFloat64()*0.3
			if isWeekend {
				b += 1.8
			}
			paint(load, b, b+0.2+rng.Float64()*0.2, a.power*0.7)
		}
		if isWeekend && rng.Float64() < 0.6 {
			l := 12.5 + rng.NormFloat64()*0.5
			paint(load, l, l+0.3+rng.Float64()*0.3, a.power*0.8)
		}
	case kindLaundry:
		prob := a.dailyProb
		if isWeekend {
			prob *= 2
		}
		if rng.Float64() < prob {
			start := 9 + rng.Float64()*9
			paint(load, start, start+1+rng.Float64(), a.power)
		}
	case kindKettle:
		n := poisson(rng, a.eventsPerDay)
		for i := 0; i < n; i++ {
			start := 6.5 + rng.Float64()*16 // waking hours
			paint(load, start, start+float64(60+rng.Intn(240))/3600, a.power)
		}
	case kindRoutine:
		for _, h := range a.routineHours {
			start := h + rng.NormFloat64()*0.05 // timers are punctual
			paint(load, start, start+a.routineDur, a.power)
		}
	case kindSpike:
		if rng.Float64() >= a.dailyProb {
			return
		}
		events := 1 + rng.Intn(2)
		for i := 0; i < events; i++ {
			start := 8 + rng.Float64()*13 // daytime use
			paint(load, start, start+0.25+rng.Float64()*0.5, a.power)
		}
	}
}

// paint adds power to load for the half-open hour interval [fromH, toH),
// clamped to the day.
func paint(load []float64, fromH, toH, power float64) {
	from := int(fromH * 3600)
	to := int(toH * 3600)
	if from < 0 {
		from = 0
	}
	if to > len(load) {
		to = len(load)
	}
	for i := from; i < to; i++ {
		load[i] += power
	}
}

// poisson draws a Poisson-distributed count via Knuth's method (fine for
// small lambda).
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// House concatenates days [fromDay, toDay) of total house load. For long
// ranges at 1 Hz this allocates toDay-fromDay × 86400 points; prefer
// HouseResampled for aggregate workloads.
func (g *Generator) House(h, fromDay, toDay int) *timeseries.Series {
	var all []timeseries.Point
	for d := fromDay; d < toDay; d++ {
		day := g.HouseDay(h, d)
		all = append(all, day.Points...)
	}
	return timeseries.MustNew(fmt.Sprintf("house%d", h+1), all)
}

// HouseResampled generates days [fromDay, toDay) and resamples each day to
// the given window (seconds) on the fly, keeping memory proportional to one
// day of 1 Hz data.
func (g *Generator) HouseResampled(h, fromDay, toDay int, window int64) *timeseries.Series {
	var all []timeseries.Point
	for d := fromDay; d < toDay; d++ {
		day := g.HouseDay(h, d).Resample(window)
		all = append(all, day.Points...)
	}
	return timeseries.MustNew(fmt.Sprintf("house%d@%ds", h+1, window), all)
}
