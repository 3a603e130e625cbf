package experiments

import (
	"math"
	"testing"

	"symmeter/internal/symbolic"
)

// testPipeline is small enough to build in well under a second per test.
func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	return NewPipeline(Config{Seed: 42, Houses: 4, Days: 6, DisableGaps: true})
}

func TestConfigDefaults(t *testing.T) {
	p := NewPipeline(Config{})
	c := p.Config()
	if c.Houses != 6 || c.Days != 24 || c.TrainDays != 2 || c.CoverageThreshold != 72000 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestBuildRejectsBadWindow(t *testing.T) {
	p := testPipeline(t)
	if err := p.Build(7); err == nil {
		t.Fatal("window not dividing a day should error")
	}
	if err := p.Build(0); err == nil {
		t.Fatal("window 0 should error")
	}
}

func TestVectorsShape(t *testing.T) {
	p := testPipeline(t)
	vecs, err := p.Vectors(Window1h)
	if err != nil {
		t.Fatal(err)
	}
	// Gapless: every house-day is eligible.
	if len(vecs) != 4*6 {
		t.Fatalf("len(vecs) = %d, want 24", len(vecs))
	}
	for _, v := range vecs {
		if len(v.Values) != 24 {
			t.Fatalf("1h vector has %d slots", len(v.Values))
		}
		for i, x := range v.Values {
			if math.IsNaN(x) {
				t.Fatalf("gapless data must have no NaN (house %d day %d slot %d)", v.House, v.Day, i)
			}
			if x <= 0 {
				t.Fatalf("non-positive power %v", x)
			}
		}
	}
	vecs15, err := p.Vectors(Window15m)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs15[0].Values) != 96 {
		t.Fatalf("15m vector has %d slots", len(vecs15[0].Values))
	}
}

func TestVectorsCachedAcrossCalls(t *testing.T) {
	p := testPipeline(t)
	a, err := p.Vectors(Window1h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Vectors(Window1h)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second call should return the cached slice")
	}
}

func TestGapsMakeDaysIneligible(t *testing.T) {
	// With gaps on, the chronically gappy house 5 (index 4) loses most days.
	p := NewPipeline(Config{Seed: 9, Houses: 6, Days: 8})
	okDays, err := p.EligibleDays(0)
	if err != nil {
		t.Fatal(err)
	}
	gappy, err := p.EligibleDays(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gappy) >= len(okDays) {
		t.Fatalf("house5 has %d eligible days vs house1's %d; want fewer", len(gappy), len(okDays))
	}
}

func TestTablesPerHouseDiffer(t *testing.T) {
	p := testPipeline(t)
	t0, err := p.Table(symbolic.MethodMedian, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := p.Table(symbolic.MethodMedian, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := separators(t0), separators(t1)
	same := true
	for i := range s0 {
		if s0[i] != s1[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different houses should learn different separators")
	}
}

func TestGlobalTableCachedAndDistinct(t *testing.T) {
	p := testPipeline(t)
	g1, err := p.Table(symbolic.MethodMedian, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.Table(symbolic.MethodMedian, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("global table should be cached")
	}
	h0, _ := p.Table(symbolic.MethodMedian, 8, 0)
	diff := false
	hs := separators(h0)
	for i, s := range separators(g1) {
		if s != hs[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("global table should differ from a single house's table")
	}
}

func TestTableHouseOutOfRange(t *testing.T) {
	p := testPipeline(t)
	if _, err := p.Table(symbolic.MethodMedian, 8, 99); err == nil {
		t.Fatal("house out of range should error")
	}
}

func TestHouseNames(t *testing.T) {
	p := testPipeline(t)
	names := p.HouseNames()
	if len(names) != 4 || names[0] != "house1" || names[3] != "house4" {
		t.Fatalf("HouseNames = %v", names)
	}
}

func TestDayVectorNaNOnMissingSlots(t *testing.T) {
	// Build with gaps and verify NaN slots appear in some eligible day
	// (a day can pass 20 h coverage yet miss individual windows).
	p := NewPipeline(Config{Seed: 3, Houses: 2, Days: 10})
	vecs, err := p.Vectors(Window15m)
	if err != nil {
		t.Fatal(err)
	}
	sawNaN := false
	for _, v := range vecs {
		for _, x := range v.Values {
			if math.IsNaN(x) {
				sawNaN = true
			}
		}
	}
	if !sawNaN {
		t.Log("no NaN slots in this configuration (acceptable but unusual)")
	}
}

// separators reads a table's k-1 separators back as the upper bounds of its
// first k-1 symbols.
func separators(tab *symbolic.Table) []float64 {
	out := make([]float64, tab.K()-1)
	for i := range out {
		_, out[i], _ = tab.Bounds(symbolic.NewSymbol(i, tab.Level()))
	}
	return out
}
