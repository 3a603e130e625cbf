package query

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// The fleet benchmarks run on the shape of benchmark/'s restart_query
// store: 1 024 meters on 16 shards, 120 gap-free days of 96 quarter-hour
// symbols each under a level-4 table. Every meter's table is its own decoded
// copy, as after a restart, where each meter's log record decodes one; the
// store interns byte-identical copies. Run them at -cpu 1,2: the fan-out is
// sized by GOMAXPROCS, and ns/meter is the number to compare across the two.
const (
	benchMeters = 1024
	benchDays   = 120
	benchPerDay = 96
)

var (
	benchStoresMu sync.Mutex
	benchStores   = map[int]*server.Store{}
)

// benchStore returns the fixture with the given number of distinct tables,
// 0 meaning one random table per meter, built once per process.
func benchStore(b *testing.B, tables int) *server.Store {
	benchStoresMu.Lock()
	defer benchStoresMu.Unlock()
	if st := benchStores[tables]; st != nil {
		return st
	}
	const stride = 86400 / benchPerDay
	rng := rand.New(rand.NewSource(1))
	shared := make([]*symbolic.Table, tables)
	for i := range shared {
		shared[i] = randTable(b, rng, 4)
	}
	st := server.NewStore(16)
	pts := make([]symbolic.SymbolPoint, benchPerDay)
	for m := uint64(1); m <= benchMeters; m++ {
		table := randTable(b, rng, 4)
		if tables > 0 {
			table = shared[int(m)%tables]
		}
		table, err := symbolic.UnmarshalTable(symbolic.MarshalTable(table))
		if err != nil {
			b.Fatal(err)
		}
		if err := st.StartSession(m); err != nil {
			b.Fatal(err)
		}
		if err := st.PushTable(m, table); err != nil {
			b.Fatal(err)
		}
		for d := int64(0); d < benchDays; d++ {
			for i := range pts {
				pts[i] = symbolic.SymbolPoint{T: (d*benchPerDay + int64(i)) * stride, S: symbolic.NewSymbol(rng.Intn(16), 4)}
			}
			if _, err := appendNext(st, m, pts); err != nil {
				b.Fatal(err)
			}
		}
		st.EndSession(m)
	}
	benchStores[tables] = st
	return st
}

// benchFleet times op over windows of the given length in days that start
// at an arbitrary second, reporting ns/meter.
func benchFleet(b *testing.B, st *server.Store, days int64, op func(e *Engine, t0, t1 int64)) {
	e := New(st)
	rng := rand.New(rand.NewSource(2))
	windows := make([]int64, 256)
	for i := range windows {
		windows[i] = rng.Int63n((benchDays - days) * 86400)
	}
	b.ResetTimer()
	start := time.Now()
	i := 0
	for b.Loop() {
		t0 := windows[i%len(windows)]
		op(e, t0, t0+days*86400)
		i++
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(i*benchMeters), "ns/meter")
}

// BenchmarkFleetAggregate is the fleet fold over one-day windows, which
// cover no 512-symbol block whole, so every meter folds one or two edge
// spans. "own-table" gives every meter its own random table: no two meters
// share a run, the case the by-table fold must not slow. "8-tables" spreads
// 8 tables over the meters, as restart_query's 8 houses do.
func BenchmarkFleetAggregate(b *testing.B) {
	for _, c := range []struct {
		name   string
		tables int
	}{{"own-table", 0}, {"8-tables", 8}} {
		b.Run(c.name, func(b *testing.B) {
			benchFleet(b, benchStore(b, c.tables), 1, func(e *Engine, t0, t1 int64) {
				if a := e.FleetAggregate(t0, t1); a.Count == 0 {
					b.Fatal("empty fleet aggregate")
				}
			})
		})
	}
}

// BenchmarkFleetHistogram is the fleet histogram over 30-day windows, as
// restart_query's fleethist op asks: per meter, five or six whole blocks
// add their lanes and the two edges are scanned.
func BenchmarkFleetHistogram(b *testing.B) {
	benchFleet(b, benchStore(b, 8), 30, func(e *Engine, t0, t1 int64) {
		if h, err := e.FleetHistogram(t0, t1); err != nil || len(h.Counts) == 0 {
			b.Fatal("empty fleet histogram", err)
		}
	})
}
