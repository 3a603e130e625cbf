package symbolic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"symmeter/internal/timeseries"
)

// refEncoder is the straightforward online encoder: it aligns every point to
// its window with a divide and finds its bin with sort.Search. It is the
// oracle FuzzEncodeSeriesVsPush holds the one-divide-per-window step and the
// branch-free bin lookup to.
type refEncoder struct {
	table    *Table
	window   int64
	winStart int64
	sum      float64
	count    int
	started  bool
}

func (e *refEncoder) encode(v float64) Symbol {
	seps := e.table.separators
	idx := sort.Search(len(seps), func(i int) bool { return seps[i] >= v })
	return Symbol{index: uint32(idx), level: uint8(e.table.Level())}
}

func (e *refEncoder) push(p timeseries.Point) (SymbolPoint, float64, bool, error) {
	if e.window <= 0 {
		return SymbolPoint{T: p.T, S: e.encode(p.V)}, p.V, true, nil
	}
	m := p.T % e.window
	if m < 0 {
		m += e.window
	}
	ws := p.T - m
	if !e.started {
		e.winStart = ws
		e.started = true
	}
	if ws < e.winStart {
		return SymbolPoint{}, 0, false, fmt.Errorf("symbolic: out-of-order point at t=%d (window starts %d)", p.T, e.winStart)
	}
	var out SymbolPoint
	var avg float64
	var ok bool
	if ws > e.winStart {
		out, avg, ok = e.emit()
		e.winStart = ws
	}
	e.sum += p.V
	e.count++
	return out, avg, ok, nil
}

func (e *refEncoder) emit() (SymbolPoint, float64, bool) {
	if e.count == 0 {
		return SymbolPoint{}, 0, false
	}
	avg := e.sum / float64(e.count)
	sp := SymbolPoint{T: e.winStart + e.window, S: e.encode(avg)}
	e.sum, e.count = 0, 0
	return sp, avg, true
}

// fuzzTable builds a table of 2..256 symbols whose separators repeat, and
// may start with NaN (NewTable's order puts NaN first) or hold ±Inf.
func fuzzTable(t *testing.T, rng *rand.Rand) *Table {
	k := 2 << rng.Intn(8)
	seps := make([]float64, k-1)
	for i := range seps {
		switch rng.Intn(16) {
		case 0:
			seps[i] = math.Inf(1)
		case 1:
			seps[i] = math.Inf(-1)
		case 2:
			seps[i] = math.NaN()
		default:
			seps[i] = float64(rng.Intn(40))
		}
	}
	sort.Float64s(seps)
	tab, err := NewTable(k, seps, -1, 41)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// fuzzPoints draws a timestamped series: mostly steps inside a window,
// points on window boundaries, gaps of many windows, and, with backwards,
// steps back in time. Timestamps wrap freely, so they go negative and cross
// the int64 range ends.
func fuzzPoints(rng *rand.Rand, n int, start, window int64, backwards bool) []timeseries.Point {
	w := window
	if w <= 0 {
		w = 60
	}
	pts := make([]timeseries.Point, n)
	t := start
	for i := range pts {
		switch rng.Intn(16) {
		case 0: // next window boundary
			m := t % w
			if m < 0 {
				m += w
			}
			t += w - m
		case 1: // a gap of many windows
			t += w * (2 + rng.Int63n(1000))
		case 2: // back into this window or the one before
			if backwards {
				t -= 1 + rng.Int63n(w) + rng.Int63n(2)*w
			}
		case 3: // same timestamp again
		default:
			t += 1 + rng.Int63n(w/4+1)
		}
		v := rng.Float64() * 40
		if rng.Intn(32) == 0 {
			v = math.NaN()
		}
		pts[i] = timeseries.Point{T: t, V: v}
	}
	return pts
}

// FuzzEncodeSeriesVsPush holds EncodeSeries, the per-point PushWithValue
// loop and the divide-per-point reference encoder to the same symbols, the
// same window averages and the same error at the same point.
func FuzzEncodeSeriesVsPush(f *testing.F) {
	f.Add(int64(1), uint16(3600), int64(900), int64(0), false)
	f.Add(int64(2), uint16(500), int64(60), int64(-100000), false)           // negative timestamps
	f.Add(int64(3), uint16(500), int64(900), int64(0), true)                 // out of order
	f.Add(int64(4), uint16(100), int64(0), int64(5), false)                  // window 0: one symbol per point
	f.Add(int64(5), uint16(100), int64(-900), int64(5), true)                // negative window
	f.Add(int64(6), uint16(200), int64(7), int64(math.MaxInt64-1000), false) // wraps past MaxInt64
	f.Add(int64(7), uint16(200), int64(math.MaxInt64), int64(0), false)      // one window spans the range
	f.Add(int64(8), uint16(1), int64(900), int64(math.MinInt64), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, window, start int64, backwards bool) {
		rng := rand.New(rand.NewSource(seed))
		tab := fuzzTable(t, rng)
		pts := fuzzPoints(rng, int(n)%4096, start, window, backwards)

		ref := &refEncoder{table: tab, window: window}
		var want []SymbolPoint
		var wantAvg []float64
		wantErrAt := -1
		var wantErr error
		for i, p := range pts {
			sp, avg, ok, err := ref.push(p)
			if err != nil {
				wantErrAt, wantErr = i, err
				break
			}
			if ok {
				want, wantAvg = append(want, sp), append(wantAvg, avg)
			}
		}
		if wantErr == nil {
			if sp, avg, ok := ref.emit(); ok {
				want, wantAvg = append(want, sp), append(wantAvg, avg)
			}
		}

		e := NewEncoder(tab, window)
		var got []SymbolPoint
		var gotAvg []float64
		gotErrAt := -1
		var gotErr error
		for i, p := range pts {
			sp, avg, ok, err := e.PushWithValue(p)
			if err != nil {
				gotErrAt, gotErr = i, err
				break
			}
			if ok {
				got, gotAvg = append(got, sp), append(gotAvg, avg)
			}
		}
		if gotErr == nil {
			if sp, avg, ok := e.FlushWithValue(); ok {
				got, gotAvg = append(got, sp), append(gotAvg, avg)
			}
		}
		if gotErrAt != wantErrAt || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Push loop: error %v at point %d, reference: %v at point %d", gotErr, gotErrAt, wantErr, wantErrAt)
		}
		if len(got) != len(want) {
			t.Fatalf("Push loop: %d symbols, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] || math.Float64bits(gotAvg[i]) != math.Float64bits(wantAvg[i]) {
				t.Fatalf("Push loop symbol %d: %+v avg %v, reference %+v avg %v", i, got[i], gotAvg[i], want[i], wantAvg[i])
			}
		}

		ss, err := EncodeSeries(&timeseries.Series{Name: "fuzz", Points: pts}, tab, window)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("EncodeSeries: error %v, reference %v at point %d", err, wantErr, wantErrAt)
		}
		if err != nil {
			return
		}
		if len(ss.Points) != len(want) {
			t.Fatalf("EncodeSeries: %d symbols, reference %d", len(ss.Points), len(want))
		}
		for i := range want {
			if ss.Points[i] != want[i] {
				t.Fatalf("EncodeSeries symbol %d: %+v, reference %+v", i, ss.Points[i], want[i])
			}
		}
	})
}
