package symbolic

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/timeseries"
)

// driftStream builds a stream whose level doubles halfway through.
func driftStream(n int, period int64, base float64, rng *rand.Rand) []timeseries.Point {
	pts := make([]timeseries.Point, n)
	for i := range pts {
		level := base
		if i >= n/2 {
			level = base * 4
		}
		pts[i] = timeseries.Point{
			T: int64(i) * period,
			V: level * math.Exp(rng.NormFloat64()*0.2),
		}
	}
	return pts
}

func adaptiveFixture(t *testing.T) (*Table, []timeseries.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	// History at the pre-drift level.
	hist := make([]float64, 2000)
	for i := range hist {
		hist[i] = 100 * math.Exp(rng.NormFloat64()*0.2)
	}
	table, err := Learn(MethodMedian, hist, 8)
	if err != nil {
		t.Fatal(err)
	}
	return table, driftStream(4000, 60, 100, rng)
}

func TestAdaptiveEncoderRelearnsOnDrift(t *testing.T) {
	table, stream := adaptiveFixture(t)
	ae, err := NewAdaptiveEncoder(table, AdaptiveConfig{
		Window: 600, CheckEvery: 48, BufferSize: 96, Threshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var updates []*TableUpdate
	for _, p := range stream {
		_, _, up, err := ae.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if up != nil {
			updates = append(updates, up)
		}
	}
	if len(updates) == 0 {
		t.Fatal("4x level drift should trigger at least one table update")
	}
	if ae.Updates() != len(updates) {
		t.Fatalf("Updates() = %d, want %d", ae.Updates(), len(updates))
	}
	// The relearned table's top separator should sit far above the original.
	origTop := table.separators[table.K()-2]
	newTop := ae.Table().separators[ae.Table().K()-2]
	if newTop <= origTop*1.5 {
		t.Fatalf("new top separator %v not adapted above original %v", newTop, origTop)
	}
	// The first update should fire after the drift midpoint, not before.
	mid := stream[len(stream)/2].T
	if updates[0].At < mid {
		t.Fatalf("update at %d fired before the drift at %d", updates[0].At, mid)
	}
	if updates[0].Divergence < 0.5 {
		t.Fatalf("divergence %v below threshold", updates[0].Divergence)
	}
}

func TestAdaptiveEncoderQuietWithoutDrift(t *testing.T) {
	table, _ := adaptiveFixture(t)
	ae, err := NewAdaptiveEncoder(table, AdaptiveConfig{
		Window: 600, CheckEvery: 48, BufferSize: 96, Threshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		p := timeseries.Point{T: int64(i) * 60, V: 100 * math.Exp(rng.NormFloat64()*0.2)}
		if _, _, up, err := ae.Push(p); err != nil {
			t.Fatal(err)
		} else if up != nil {
			t.Fatalf("spurious table update at t=%d (divergence %v)", up.At, up.Divergence)
		}
	}
}

func TestAdaptiveEncoderImprovesReconstruction(t *testing.T) {
	// After drift, adaptive reconstruction must beat the static table's.
	table, stream := adaptiveFixture(t)
	ae, err := NewAdaptiveEncoder(table, AdaptiveConfig{
		Window: 600, CheckEvery: 24, BufferSize: 96, Threshold: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	static := NewEncoder(table, 600)

	var adaptErr, staticErr float64
	n := 0
	// Track true window means to compare against.
	half := len(stream) / 2
	for i, p := range stream {
		inPostDrift := i > half+600/60*24 // give the adaptive encoder time to react
		sp, ok, _, err := ae.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok && inPostDrift {
			v, err := ae.Table().Value(sp.S)
			if err == nil {
				adaptErr += math.Abs(v - 400)
				n++
			}
		}
		sp2, ok2, err := static.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok2 && inPostDrift {
			v, err := table.Value(sp2.S)
			if err == nil {
				staticErr += math.Abs(v - 400)
			}
		}
	}
	if n == 0 {
		t.Fatal("no post-drift windows observed")
	}
	if adaptErr >= staticErr {
		t.Fatalf("adaptive error %v not below static %v after drift", adaptErr, staticErr)
	}
}

func TestNewAdaptiveEncoderValidation(t *testing.T) {
	if _, err := NewAdaptiveEncoder(nil, AdaptiveConfig{}); err == nil {
		t.Fatal("nil table should error")
	}
	raw, err := NewTable(2, []float64{5}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdaptiveEncoder(raw, AdaptiveConfig{}); err == nil {
		t.Fatal("hand-built table without a method should error")
	}
}

func TestAdaptiveConfigDefaults(t *testing.T) {
	c := AdaptiveConfig{}.withDefaults()
	if c.BufferSize != 960 || c.CheckEvery != 96 || c.Threshold != 0.12 || c.Patience != 3 {
		t.Fatalf("defaults = %+v", c)
	}
}
