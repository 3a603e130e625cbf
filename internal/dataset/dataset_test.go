package dataset

import (
	"math"
	"testing"

	"symmeter/internal/stats"
	"symmeter/internal/timeseries"
)

func TestDeterminism(t *testing.T) {
	a := New(Config{Seed: 42, Days: 3}).HouseDay(0, 1)
	b := New(Config{Seed: 42, Days: 3}).HouseDay(0, 1)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	a := New(Config{Seed: 1, DisableGaps: true}).HouseDay(0, 0)
	b := New(Config{Seed: 2, DisableGaps: true}).HouseDay(0, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Points[i].V == b.Points[i].V {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds should give different data, %d/1000 equal", same)
	}
}

func TestFullCoverageWithoutGaps(t *testing.T) {
	g := New(Config{Seed: 7, DisableGaps: true})
	day := g.HouseDay(2, 0)
	if day.Len() != timeseries.SecondsPerDay {
		t.Fatalf("Len = %d, want %d", day.Len(), timeseries.SecondsPerDay)
	}
	if end := day.Points[day.Len()-1].T; day.Start() != 0 || end != timeseries.SecondsPerDay-1 {
		t.Fatalf("range [%d,%d]", day.Start(), end)
	}
}

func TestDayTimestampsOffset(t *testing.T) {
	g := New(Config{Seed: 7, DisableGaps: true})
	day3 := g.HouseDay(0, 3)
	if day3.Start() != 3*timeseries.SecondsPerDay {
		t.Fatalf("day 3 starts at %d", day3.Start())
	}
}

func TestValuesPositive(t *testing.T) {
	g := New(Config{Seed: 9, DisableGaps: true})
	for h := 0; h < g.Houses(); h++ {
		day := g.HouseDay(h, 0)
		for _, p := range day.Points[:1000] {
			if p.V <= 0 || math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				t.Fatalf("house %d: bad value %v", h, p.V)
			}
		}
	}
}

func TestMainsSumToTotal(t *testing.T) {
	g := New(Config{Seed: 3})
	m0, m1 := g.MainsDay(1, 2)
	total := g.HouseDay(1, 2)
	sum := timeseries.Sum("check", m0, m1)
	if sum.Len() != total.Len() {
		t.Fatalf("lengths: %d vs %d", sum.Len(), total.Len())
	}
	for i := range sum.Points {
		if math.Abs(sum.Points[i].V-total.Points[i].V) > 1e-9 {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestHousesAreDistinctiveInShape(t *testing.T) {
	// Houses must be tellable apart by their *rhythm*: the normalised mean
	// hourly profile of a house should be closer to the same house on other
	// days than to any other house. Levels deliberately overlap (day-to-day
	// occupancy swings), mirroring REDD, where classification hinges on
	// usage patterns rather than absolute consumption.
	g := New(Config{Seed: 5, DisableGaps: true})

	// profile averages the hourly loads of weekdays [d0, d1) and normalises
	// by its own mean, removing level.
	profile := func(h, d0, d1 int) []float64 {
		prof := make([]float64, 24)
		n := 0
		for d := d0; d < d1; d++ {
			day := g.HouseDay(h, d).Resample(3600)
			for i, p := range day.Points {
				prof[i%24] += p.V
			}
			n++
		}
		var mean float64
		for i := range prof {
			prof[i] /= float64(n)
			mean += prof[i]
		}
		mean /= 24
		for i := range prof {
			prof[i] /= mean
		}
		return prof
	}
	l1 := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}

	// Weekdays only (day 0 is a Monday): split Mon/Tue vs Wed/Thu.
	within := make([]float64, g.Houses())
	full := make([][]float64, g.Houses())
	for h := 0; h < g.Houses(); h++ {
		within[h] = l1(profile(h, 0, 2), profile(h, 2, 4))
		full[h] = profile(h, 0, 4)
	}
	good := 0
	pairs := 0
	for i := 0; i < g.Houses(); i++ {
		for j := i + 1; j < g.Houses(); j++ {
			pairs++
			between := l1(full[i], full[j])
			if between > within[i] && between > within[j] {
				good++
			}
		}
	}
	if good < pairs*2/3 {
		t.Fatalf("only %d/%d house pairs are shape-distinct (within=%v)", good, pairs, within)
	}
}

func TestDiurnalStructure(t *testing.T) {
	// Evening (18-22h) load should exceed small-hours (1-5h) load on average
	// over a week, for most houses.
	g := New(Config{Seed: 11, DisableGaps: true})
	ok := 0
	for h := 0; h < g.Houses(); h++ {
		var evening, night float64
		for d := 0; d < 7; d++ {
			day := g.HouseDay(h, d)
			evening += hoursMean(day, 18, 22)
			night += hoursMean(day, 1, 5)
		}
		if evening > night {
			ok++
		}
	}
	if ok < g.Houses()-1 {
		t.Fatalf("only %d/%d houses show diurnal structure", ok, g.Houses())
	}
}

func TestLogNormalMarginal(t *testing.T) {
	// Fig. 2: the distribution of power levels is right-skewed like a
	// log-normal: mean > median, and the log-values should have modest
	// skewness compared to raw values.
	g := New(Config{Seed: 13, DisableGaps: true})
	vals := g.HouseDay(0, 0).Values()
	mean, median := stats.Mean(vals), median(t, vals)
	if !(mean > median) {
		t.Fatalf("expected right skew: mean %v <= median %v", mean, median)
	}
	// Skewness of logs should be much smaller than skewness of raw values.
	if skew(logs(vals)) >= skew(vals) {
		t.Fatalf("log skew %v >= raw skew %v", skew(logs(vals)), skew(vals))
	}
}

func logs(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			out = append(out, math.Log(x))
		}
	}
	return out
}

func skew(xs []float64) float64 {
	m, s := stats.Mean(xs), stats.StdDev(xs)
	var sum float64
	for _, x := range xs {
		d := (x - m) / s
		sum += d * d * d
	}
	return sum / float64(len(xs))
}

func TestGapsOccur(t *testing.T) {
	g := New(Config{Seed: 17, Days: 30})
	sawGap := false
	for d := 0; d < 30 && !sawGap; d++ {
		day := g.HouseDay(0, d)
		if int64(day.Len()) < timeseries.SecondsPerDay {
			sawGap = true
		}
	}
	if !sawGap {
		t.Fatal("no gaps in 30 days with gaps enabled")
	}
}

func TestHouse5IsGappy(t *testing.T) {
	// House index 4 must fail the paper's 20 h coverage threshold far more
	// often than the others, so forecasting can skip it like the paper does.
	g := New(Config{Seed: 19, Days: 20})
	badDays := func(h int) int {
		bad := 0
		for d := 0; d < g.cfg.Days; d++ {
			if int64(g.HouseDay(h, d).Len()) < 20*3600 {
				bad++
			}
		}
		return bad
	}
	b4 := badDays(4)
	b0 := badDays(0)
	if b4 <= b0 || b4 < g.cfg.Days/2 {
		t.Fatalf("house5 bad days = %d, house1 = %d; want house5 chronically gappy", b4, b0)
	}
}

func TestWeekendDiffersFromWeekday(t *testing.T) {
	// Morning (7-9h) weekend load pattern differs from weekday: cooking and
	// lighting shift late. Compare averaged morning load over several weeks.
	g := New(Config{Seed: 23, DisableGaps: true})
	var wd, we, wdN, weN float64
	for d := 0; d < 21; d++ {
		day := g.HouseDay(1, d)
		m := hoursMean(day, 7, 9)
		if weekend(d) {
			we += m
			weN++
		} else {
			wd += m
			wdN++
		}
	}
	if wdN == 0 || weN == 0 {
		t.Fatal("need both weekdays and weekends in 21 days")
	}
	if math.Abs(wd/wdN-we/weN) < 1 {
		t.Fatalf("weekday %v vs weekend %v morning load suspiciously identical", wd/wdN, we/weN)
	}
}

func TestHouseRangeAndResampled(t *testing.T) {
	g := New(Config{Seed: 29, DisableGaps: true})
	s := g.House(0, 0, 2)
	if s.Len() != 2*timeseries.SecondsPerDay {
		t.Fatalf("Len = %d", s.Len())
	}
	r := g.HouseResampled(0, 0, 2, 3600)
	if r.Len() != 48 {
		t.Fatalf("resampled Len = %d, want 48", r.Len())
	}
	// Resampled-on-the-fly must equal resample-after-concatenation.
	r2 := s.Resample(3600)
	for i := range r.Points {
		if math.Abs(r.Points[i].V-r2.Points[i].V) > 1e-9 {
			t.Fatalf("resample mismatch at %d: %v vs %v", i, r.Points[i], r2.Points[i])
		}
	}
}

func TestHouseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for house out of range")
		}
	}()
	New(Config{}).HouseDay(99, 0)
}

func TestConfigDefaults(t *testing.T) {
	g := New(Config{})
	if g.Houses() != 6 || g.cfg.Days != 30 {
		t.Fatalf("defaults = %d houses, %d days", g.Houses(), g.cfg.Days)
	}
}

// hoursMean is the mean load of a gap-free 1 Hz day over hours [from, to).
func hoursMean(day *timeseries.Series, from, to int) float64 {
	return (&timeseries.Series{Points: day.Points[from*3600 : to*3600]}).Summary().Mean
}

// median is the 2-quantile separator of vals: the median.
func median(t *testing.T, vals []float64) float64 {
	t.Helper()
	seps, err := stats.KQuantiles(vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	return seps[0]
}
