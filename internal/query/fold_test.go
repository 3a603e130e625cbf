package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// viewFold is the reference the engine's per-meter fold must match bit for
// bit: the same steps run over the BlockViews Meter.CollectRange returns —
// the live tail inside its callback, flushed there, then the sealed views in
// chain order — with the edge spans of each run of one level and one table
// gathered and folded by one batch kernel call.
type viewFold struct {
	spans  []symbolic.PackedSpan
	hist   []uint64
	level  int
	values []float64
}

// viewOverlap is the index range of v's points inside [t0, t1).
func viewOverlap(v *server.BlockView, t0, t1 int64) (int, int) {
	if t0 >= t1 || v.N == 0 || t1 <= v.FirstT || t0 > v.LastT() {
		return 0, 0
	}
	if v.Stride == 0 {
		return 0, 1
	}
	ceil := func(a, b int64) int {
		q := a / b
		if a%b != 0 && a > 0 {
			q++
		}
		return int(q)
	}
	i0, i1 := 0, v.N
	if t0 > v.FirstT {
		i0 = ceil(t0-v.FirstT, v.Stride)
	}
	if t1 <= v.LastT() {
		i1 = ceil(t1-v.FirstT, v.Stride)
	}
	if i0 >= i1 {
		return 0, 0
	}
	return i0, i1
}

func observe(a *Agg, lo, hi float64) {
	if a.Count == 0 || lo < a.Min {
		a.Min = lo
	}
	if a.Count == 0 || hi > a.Max {
		a.Max = hi
	}
}

func (f *viewFold) fold(a *Agg, v *server.BlockView, t0, t1 int64) {
	i0, i1 := viewOverlap(v, t0, t1)
	switch {
	case i0 == i1:
	case i0 == 0 && i1 == v.N:
		observe(a, v.MinV, v.MaxV)
		a.Count += uint64(v.N)
		a.Sum += v.Sum
	case v.Level > 8:
		sum, lo, hi := symbolic.PackedRangeAggregate(v.Values, v.Payload, v.Level, i0, i1)
		observe(a, lo, hi)
		a.Count += uint64(i1 - i0)
		a.Sum += sum
	default:
		same := len(v.Values) == len(f.values) && &v.Values[0] == &f.values[0]
		if v.Level != f.level || !same {
			f.flush(a)
			f.level, f.values = v.Level, v.Values
		}
		f.spans = append(f.spans, symbolic.PackedSpan{Payload: v.Payload, Start: i0, End: i1})
	}
}

func (f *viewFold) flush(a *Agg) {
	if len(f.spans) == 0 {
		return
	}
	f.hist = make([]uint64, 1<<f.level)
	symbolic.PackedRangeHistogramBatch(f.hist, f.level, f.spans)
	if c, s, lo, hi := symbolic.HistogramAggregate(f.hist, f.values); c > 0 {
		observe(a, lo, hi)
		a.Count += c
		a.Sum += s
	}
	f.spans = f.spans[:0]
}

func refAggregate(m server.Meter, t0, t1 int64) Agg {
	var a Agg
	var f viewFold
	views := m.CollectRange(t0, t1, nil, func(v server.BlockView) {
		f.fold(&a, &v, t0, t1)
		f.flush(&a)
	})
	for i := range views {
		f.fold(&a, &views[i], t0, t1)
	}
	f.flush(&a)
	return a
}

func refHistogram(m server.Meter, t0, t1 int64) (Histogram, error) {
	var h Histogram
	add := func(v *server.BlockView) error {
		i0, i1 := viewOverlap(v, t0, t1)
		if i0 == i1 {
			return nil
		}
		if v.Level > 12 {
			return ErrLevelTooFine
		}
		if len(h.Counts) == 0 {
			h.Level, h.Counts = v.Level, make([]uint64, 1<<v.Level)
		} else if h.Level != v.Level {
			return ErrMixedLevels
		}
		if i0 == 0 && i1 == v.N && v.Hist != nil {
			for s, c := range v.Hist {
				h.Counts[s] += uint64(c)
			}
			return nil
		}
		symbolic.PackedRangeHistogram(h.Counts, v.Payload, v.Level, i0, i1)
		return nil
	}
	var err error
	views := m.CollectRange(t0, t1, nil, func(v server.BlockView) { err = add(&v) })
	for i := 0; i < len(views) && err == nil; i++ {
		err = add(&views[i])
	}
	return h, err
}

// TestFleetFoldMatchesViewFold pins the fold that reads the published index
// in place against viewFold, the same fold over CollectRange's views: per
// meter, Count, Sum, Min and Max agree to the bit and histograms bin for bin,
// and the fleet fan-out agrees with the merged per-meter answers on every
// worker count. The meters cover level 4 with mid-stream table changes (a new
// table, and the same table pushed again, whose edges share one run), level
// 10 (the accumulator walk), an unordered chain, and a single point; the
// ranges cover sealed-only, tail-edge, tail-interior, past-tail and
// before-stream shapes plus random ones.
func TestFleetFoldMatchesViewFold(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	st := server.NewStore(4)
	const w = 900
	appendAt := func(id uint64, table *symbolic.Table, ts []int64) {
		t.Helper()
		pts := make([]symbolic.SymbolPoint, len(ts))
		for i, tt := range ts {
			pts[i] = symbolic.SymbolPoint{T: tt, S: symbolic.NewSymbol(rng.Intn(table.K()), table.Level())}
		}
		if _, err := appendNext(st, id, pts); err != nil {
			t.Fatal(err)
		}
	}
	run := func(from, n int) []int64 {
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = int64(from+i) * w
		}
		return ts
	}
	start := func(id uint64, table *symbolic.Table) {
		t.Helper()
		if err := st.StartSession(id); err != nil {
			t.Fatal(err)
		}
		if err := st.PushTable(id, table); err != nil {
			t.Fatal(err)
		}
	}
	// Meter 1, level 4: a new table after 700 points and the same table
	// object again after 1300, each sealing the block it interrupts.
	t4 := randTable(t, rng, 4)
	start(1, t4)
	appendAt(1, t4, run(0, 700))
	t4b := randTable(t, rng, 4)
	if err := st.PushTable(1, t4b); err != nil {
		t.Fatal(err)
	}
	appendAt(1, t4b, run(700, 600))
	if err := st.PushTable(1, t4b); err != nil {
		t.Fatal(err)
	}
	appendAt(1, t4b, run(1300, 900))
	// Meter 2, level 10: edges fold value by value.
	t10 := randTable(t, rng, 10)
	start(2, t10)
	appendAt(2, t10, run(0, 1700))
	// Meter 3, level 4: a replayed stretch of old timestamps after two full
	// blocks makes the chain unordered, so the directory is not searched.
	t4c := randTable(t, rng, 4)
	start(3, t4c)
	appendAt(3, t4c, run(0, 1100))
	appendAt(3, t4c, run(300, 200))
	appendAt(3, t4c, run(1100, 300))
	// Meter 4: one point, all tail.
	start(4, t4)
	appendAt(4, t4, run(10, 1))
	for id := uint64(1); id <= 4; id++ {
		st.EndSession(id)
	}

	e := New(st)
	var ranges [][2]int64
	for id := uint64(1); id <= 4; id++ {
		m, _ := st.Meter(id)
		tailT, ok := liveTailStart(m)
		if !ok {
			t.Fatalf("meter %d has no live tail", id)
		}
		var tailLast int64
		m.CollectRange(tailT, math.MaxInt64, nil, func(v server.BlockView) { tailLast = v.LastT() })
		ranges = append(ranges,
			[2]int64{0, tailT},                     // sealed-only
			[2]int64{5*w + 1, tailT + 3*w},         // tail-edge
			[2]int64{tailT + w, tailLast},          // tail-interior
			[2]int64{tailLast + w, 1 << 40},        // past-tail
			[2]int64{-1000, -1},                    // before-stream
			[2]int64{math.MinInt64, math.MaxInt64}, // everything
		)
	}
	for range 40 {
		a, b := rng.Int63n(2300*w)-w, rng.Int63n(2300*w)
		ranges = append(ranges, [2]int64{a, b}, [2]int64{a, a + 96*w})
	}

	bits := func(a Agg) [4]uint64 {
		return [4]uint64{a.Count, math.Float64bits(a.Sum), math.Float64bits(a.Min), math.Float64bits(a.Max)}
	}
	var h Histogram
	for _, r := range ranges {
		t0, t1 := r[0], r[1]
		var want Agg
		var wantCount uint64
		for id := uint64(1); id <= 4; id++ {
			m, _ := st.Meter(id)
			ref := refAggregate(m, t0, t1)
			got, _ := e.Aggregate(id, t0, t1)
			if ref.Count == 0 {
				// Min and Max are unspecified on an empty range.
				ref.Min, ref.Max, got.Min, got.Max = 0, 0, 0, 0
			}
			if bits(got) != bits(ref) {
				t.Fatalf("meter %d [%d, %d): Aggregate %+v, view fold %+v", id, t0, t1, got, ref)
			}
			if n, _ := e.Count(id, t0, t1); n != ref.Count {
				t.Fatalf("meter %d [%d, %d): Count %d, view fold %d", id, t0, t1, n, ref.Count)
			}
			refH, refErr := refHistogram(m, t0, t1)
			_, err := e.HistogramInto(&h, id, t0, t1)
			if !errors.Is(err, refErr) || (refErr == nil && fmt.Sprint(h) != fmt.Sprint(refH)) {
				t.Fatalf("meter %d [%d, %d): histogram %v (%v), view fold %v (%v)", id, t0, t1, h, err, refH, refErr)
			}
			want.Merge(ref)
			wantCount += ref.Count
		}
		for _, procs := range []int{1, 2, 3, 8, 64} {
			prev := runtime.GOMAXPROCS(procs)
			got := e.FleetAggregate(t0, t1)
			count := e.FleetCount(t0, t1)
			runtime.GOMAXPROCS(prev)
			if got.Count != want.Count || count != wantCount ||
				(want.Count > 0 && (got.Min != want.Min || got.Max != want.Max || relDiff(got.Sum, want.Sum) > 1e-9)) {
				t.Fatalf("GOMAXPROCS %d [%d, %d): fleet %+v (count %d), merged view folds %+v", procs, t0, t1, got, count, want)
			}
		}
	}
}
