package query

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// FuzzFleetVsPerMeter holds the by-table fleet fold to the per-meter one on
// random stores: FleetAggregate to the merged per-meter Aggregates (count,
// min and max to the bit, sum within 1e-9) and FleetHistogram to the summed
// per-meter histograms (exactly, or the same error), on one worker and on
// four.
//
// A store draws its meters' tables from a pool of 1 to 20 distinct tables —
// more than a fleet worker keeps runs for, so runs are evicted — each meter
// pushing its own decoded copy, which the store interns into the pool's one
// table, or a random table of its own; some change table partway (a second
// epoch). Levels are 1, 2, 4, 8 and 12 (12 folds edges value by value), one
// per store, so histograms agree on a level, except that one meter in four
// stores takes another level. Every meter keeps a live tail, and the ranges
// run from empty through partial days to the whole history. On one worker,
// the ranges asked again in reverse order must give the same sums to the
// bit: a pooled scratch carries nothing from one query into the next.
func FuzzFleetVsPerMeter(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(8), uint8(2), uint8(0), uint16(600))
	f.Add(int64(2), uint8(40), uint8(20), uint8(0), uint8(3), uint16(1400))
	f.Add(int64(3), uint8(12), uint8(1), uint8(4), uint8(1), uint16(200))
	f.Add(int64(4), uint8(25), uint8(0), uint8(3), uint8(2), uint16(900))
	f.Add(int64(5), uint8(5), uint8(5), uint8(1), uint8(7), uint16(1100))
	f.Add(int64(6), uint8(33), uint8(17), uint8(2), uint8(0), uint16(50))
	f.Add(int64(7), uint8(39), uint8(12), uint8(2), uint8(1), uint16(1400))
	f.Fuzz(func(t *testing.T, seed int64, metersRaw, poolRaw, levelRaw, mixRaw uint8, nRaw uint16) {
		rng := rand.New(rand.NewSource(seed))
		meters := 1 + int(metersRaw)%40
		pool := int(poolRaw) % 21 // 0: every meter has its own table
		level := []int{1, 2, 4, 8, 12}[int(levelRaw)%5]
		maxN := 1 + int(nRaw)%1500
		st := server.NewStore(4)
		tables := make([]*symbolic.Table, pool)
		for i := range tables {
			tables[i] = randTable(t, rng, level)
		}
		table := func(level int) *symbolic.Table {
			if pool == 0 || level != tables[0].Level() || rng.Intn(8) == 0 {
				return randTable(t, rng, level)
			}
			c, err := symbolic.UnmarshalTable(symbolic.MarshalTable(tables[rng.Intn(pool)]))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		const w = 900
		var last int64
		for m := uint64(1); m <= uint64(meters); m++ {
			lv := level
			if mixRaw%4 == 0 && m == 1 {
				lv = []int{1, 2, 4, 8, 12}[(int(levelRaw)+1)%5]
			}
			if err := st.StartSession(m); err != nil {
				t.Fatal(err)
			}
			if err := st.PushTable(m, table(lv)); err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(maxN)
			change := -1
			if rng.Intn(3) == 0 {
				change = rng.Intn(n)
			}
			ts := int64(rng.Intn(4)) * w
			for sent := 0; sent < n; {
				batch := min(1+rng.Intn(96), n-sent)
				if change >= sent && change < sent+batch {
					batch = max(change-sent, 1)
					if err := st.PushTable(m, table(lv)); err != nil {
						t.Fatal(err)
					}
					change = -1
				}
				pts := make([]symbolic.SymbolPoint, batch)
				for i := range pts {
					pts[i] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol(rng.Intn(1<<lv), lv)}
					ts += w
					if rng.Intn(50) == 0 {
						ts += w * int64(1+rng.Intn(3))
					}
				}
				if _, err := appendNext(st, m, pts); err != nil {
					t.Fatal(err)
				}
				sent += batch
			}
			st.EndSession(m)
			last = max(last, ts)
		}

		e := New(st)
		ranges := [][2]int64{{0, 0}, {math.MinInt64, math.MaxInt64}, {-w, last + w}}
		for range 6 {
			t0 := rng.Int63n(last+2*w) - w
			ranges = append(ranges,
				[2]int64{t0, t0 + 96*w},                 // a day
				[2]int64{t0, t0 + 1 + rng.Int63n(last)}, // anything longer
				[2]int64{t0, t0 + rng.Int63n(3*w)})      // a point or two, or none
		}
		bits := math.Float64bits
		oneWorker := make([]Agg, len(ranges))
		for ri, r := range ranges {
			t0, t1 := r[0], r[1]
			var want Agg
			var wantH Histogram
			var wantErr error
			var h Histogram
			for m := uint64(1); m <= uint64(meters); m++ {
				a, _ := e.Aggregate(m, t0, t1)
				want.Merge(a)
				if wantErr != nil {
					continue
				}
				if _, err := e.HistogramInto(&h, m, t0, t1); err != nil {
					wantErr = err
					continue
				}
				if len(h.Counts) == 0 {
					continue
				}
				if wantH.Counts == nil {
					wantH = Histogram{Level: h.Level, Counts: make([]uint64, len(h.Counts))}
				} else if wantH.Level != h.Level {
					wantErr = ErrMixedLevels
					continue
				}
				for s, c := range h.Counts {
					wantH.Counts[s] += c
				}
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := e.FleetAggregate(t0, t1)
				gotH, err := e.FleetHistogram(t0, t1)
				runtime.GOMAXPROCS(prev)
				if procs == 1 {
					oneWorker[ri] = got
				}
				if got.Count != want.Count || (want.Count > 0 &&
					(bits(got.Min) != bits(want.Min) || bits(got.Max) != bits(want.Max) || relDiff(got.Sum, want.Sum) > 1e-9)) {
					t.Fatalf("GOMAXPROCS %d [%d, %d): fleet %+v, merged per-meter %+v", procs, t0, t1, got, want)
				}
				switch {
				case wantErr != nil:
					if !errors.Is(err, ErrMixedLevels) && !errors.Is(err, ErrLevelTooFine) {
						t.Fatalf("GOMAXPROCS %d [%d, %d): fleet histogram error %v, per-meter %v", procs, t0, t1, err, wantErr)
					}
				case err != nil:
					t.Fatalf("GOMAXPROCS %d [%d, %d): fleet histogram: %v", procs, t0, t1, err)
				case gotH.Level != wantH.Level || len(gotH.Counts) != len(wantH.Counts):
					t.Fatalf("GOMAXPROCS %d [%d, %d): fleet histogram level %d/%d bins, summed per-meter %d/%d", procs, t0, t1, gotH.Level, len(gotH.Counts), wantH.Level, len(wantH.Counts))
				default:
					for s := range wantH.Counts {
						if gotH.Counts[s] != wantH.Counts[s] {
							t.Fatalf("GOMAXPROCS %d [%d, %d): symbol %d: fleet %d, summed per-meter %d", procs, t0, t1, s, gotH.Counts[s], wantH.Counts[s])
						}
					}
				}
			}
		}
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		for ri := len(ranges) - 1; ri >= 0; ri-- {
			got, first := e.FleetAggregate(ranges[ri][0], ranges[ri][1]), oneWorker[ri]
			if got.Count != first.Count || bits(got.Sum) != bits(first.Sum) || bits(got.Min) != bits(first.Min) || bits(got.Max) != bits(first.Max) {
				t.Fatalf("[%d, %d) asked again: %+v, first %+v", ranges[ri][0], ranges[ri][1], got, first)
			}
		}
	})
}

// TestFleetScratchPooled: a fleet aggregate's run state and a fleet
// histogram's per-worker counts come from the freelist, so once warm a
// FleetAggregate, and a FleetHistogramInto into a reused histogram,
// allocate no more than a FleetCount, which folds with no scratch at all —
// the fan-out's own allocations only.
func TestFleetScratchPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := server.NewStore(8)
	for m := uint64(1); m <= 16; m++ {
		seedMeter(t, st, rng, m, randTable(t, rng, 4), 3000, 0, 0)
	}
	e := New(st)
	const t0, t1 = 100 * 900, 300 * 900
	count := mallocs(100, func() { e.FleetCount(t0, t1) })
	if agg := mallocs(100, func() { e.FleetAggregate(t0, t1) }); agg > count {
		t.Fatalf("100 fleet aggregates made %d mallocs, 100 fleet counts %d", agg, count)
	}
	// A pooled scratch grows its counts on its first histogram, and the
	// freelist hands its scratches out in turn: warm every one first, on one
	// worker, so that each folds a meter.
	var h Histogram
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range cap(fleetScratch) {
		if err := e.FleetHistogramInto(&h, t0, t1); err != nil {
			t.Fatal(err)
		}
	}
	hist := mallocs(100, func() {
		if err := e.FleetHistogramInto(&h, t0, t1); err != nil {
			t.Fatal(err)
		}
	})
	if hist > count {
		t.Fatalf("100 fleet histograms made %d mallocs, 100 fleet counts %d", hist, count)
	}
	if want, err := e.FleetHistogram(t0, t1); err != nil || h.Level != want.Level || !slices.Equal(h.Counts, want.Counts) || len(h.Counts) == 0 {
		t.Fatalf("FleetHistogramInto %+v, FleetHistogram %+v (err %v)", h, want, err)
	}
}
