package query

import (
	"math/rand"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// BenchmarkFleetAggregate is the in-process cost of the fleet fold on the
// shape of benchmark/'s restart_query fleet op: 1 024 meters on 16 shards,
// 120 gap-free days of 96 quarter-hour symbols each under one random level-4
// table per meter, queried over a random one-day window that starts at an
// arbitrary second — so it covers no 512-symbol block whole and every meter
// folds one or two edge spans. Run it at -cpu 1,2: the fan-out is sized by
// GOMAXPROCS, and ns/meter is the number to compare across the two.
func BenchmarkFleetAggregate(b *testing.B) {
	const (
		meters = 1024
		days   = 120
		perDay = 96
		stride = 86400 / perDay
	)
	rng := rand.New(rand.NewSource(1))
	st := server.NewStore(16)
	pts := make([]symbolic.SymbolPoint, perDay)
	for m := uint64(1); m <= meters; m++ {
		table := randTable(b, rng, 4)
		if err := st.StartSession(m); err != nil {
			b.Fatal(err)
		}
		if err := st.PushTable(m, table); err != nil {
			b.Fatal(err)
		}
		for d := int64(0); d < days; d++ {
			for i := range pts {
				pts[i] = symbolic.SymbolPoint{T: (d*perDay + int64(i)) * stride, S: symbolic.NewSymbol(rng.Intn(16), 4)}
			}
			if _, err := appendNext(st, m, pts); err != nil {
				b.Fatal(err)
			}
		}
		st.EndSession(m)
	}
	e := New(st)
	windows := make([]int64, 256)
	for i := range windows {
		windows[i] = rng.Int63n((days - 1) * 86400)
	}
	b.ResetTimer()
	start := time.Now()
	i := 0
	for b.Loop() {
		t0 := windows[i%len(windows)]
		if a := e.FleetAggregate(t0, t0+86400); a.Count == 0 {
			b.Fatal("empty fleet aggregate")
		}
		i++
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(i*meters), "ns/meter")
}
