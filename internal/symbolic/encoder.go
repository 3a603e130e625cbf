package symbolic

import (
	"fmt"
	"math"

	"symmeter/internal/timeseries"
)

// Encoder is the online conversion pipeline of §2: it consumes raw
// measurements one at a time, applies time-aligned vertical segmentation
// (averaging within fixed windows of Window seconds) and horizontal
// segmentation with a fixed lookup table, and emits symbols as windows
// complete. It never looks at future data.
//
// Push, PushWithValue and EncodeSeries take the same step per point. A point
// inside the open window costs a subtract, a compare and an add (fold); the
// divide that aligns a timestamp to its window runs only for a point that
// leaves it (open), once per window on a dense series.
//
// The lookup table must be learned from historical data before streaming
// starts ("the first horizontal segmentation has to be performed before the
// system can start to process any data", §2.2); see TableBuilder.
type Encoder struct {
	table  *Table
	window int64

	// The open window starts at winStart; a timestamp t folds into it
	// without a divide when uint64(t-winStart) < span. span is window while
	// a window is open and winStart+window does not overflow, 0 otherwise:
	// then the wrapped difference is exact, and every point goes to open.
	// count > 0 exactly while a window is open.
	winStart int64
	span     uint64
	sum      float64
	count    int
}

// NewEncoder returns an online encoder emitting one symbol per `window`
// seconds of input. window <= 0 disables vertical segmentation (one symbol
// per measurement).
func NewEncoder(table *Table, window int64) *Encoder {
	if table == nil {
		panic("symbolic: NewEncoder needs a table")
	}
	return &Encoder{table: table, window: window}
}

// Table returns the lookup table, which a sensor would transmit to the
// aggregation server before sending symbolic data.
func (e *Encoder) Table() *Table { return e.table }

// Push feeds one measurement. If it completes a vertical window, the
// window's symbol is returned with ok=true. Measurements must arrive in
// timestamp order; out-of-order points return an error.
func (e *Encoder) Push(p timeseries.Point) (out SymbolPoint, ok bool, err error) {
	out, _, ok, err = e.PushWithValue(p)
	return out, ok, err
}

// PushWithValue is Push, additionally returning the completed window's
// average value — the quantity a sensor still has in hand before it is
// quantised away (the adaptive relearning path needs it).
func (e *Encoder) PushWithValue(p timeseries.Point) (out SymbolPoint, avg float64, ok bool, err error) {
	if e.fold([]timeseries.Point{p}) == 1 {
		return out, 0, false, nil
	}
	return e.open(p)
}

// fold adds the leading points of ps that fall in the open window to it and
// returns how many it took: the whole cost of points that complete nothing.
// It inlines, and keeps the running sum in a register across a run.
func (e *Encoder) fold(ps []timeseries.Point) int {
	sum, n := e.sum, 0
	for n < len(ps) && uint64(ps[n].T-e.winStart) < e.span {
		sum += ps[n].V
		n++
	}
	e.sum = sum
	e.count += n
	return n
}

// open takes a point fold refused: it closes the open window, emitting its
// symbol, and opens the point's own. window <= 0 encodes the point alone.
func (e *Encoder) open(p timeseries.Point) (out SymbolPoint, avg float64, ok bool, err error) {
	if e.window <= 0 {
		return SymbolPoint{T: p.T, S: e.table.Encode(p.V)}, p.V, true, nil
	}
	ws := p.T - mod64(p.T, e.window)
	if e.count > 0 {
		if ws < e.winStart {
			return SymbolPoint{}, 0, false, fmt.Errorf("symbolic: out-of-order point at t=%d (window starts %d)", p.T, e.winStart)
		}
		if ws > e.winStart {
			out, avg, ok = e.emit()
		}
	}
	e.winStart, e.span = ws, uint64(e.window)
	if ws > math.MaxInt64-e.window {
		e.span = 0
	}
	e.sum += p.V
	e.count++
	return out, avg, ok, nil
}

// Flush emits the symbol for the current partial window, if any. Call at
// end of stream.
func (e *Encoder) Flush() (SymbolPoint, bool) {
	out, _, ok := e.FlushWithValue()
	return out, ok
}

// FlushWithValue is Flush, additionally returning the partial window's
// average value — the same quantity PushWithValue exposes for completed
// windows.
func (e *Encoder) FlushWithValue() (SymbolPoint, float64, bool) {
	out, avg, ok := e.emit()
	e.span = 0
	return out, avg, ok
}

// emit finalises the current window into a symbol and its average.
func (e *Encoder) emit() (SymbolPoint, float64, bool) {
	if e.count == 0 {
		return SymbolPoint{}, 0, false
	}
	avg := e.sum / float64(e.count)
	sp := SymbolPoint{T: e.winStart + e.window, S: e.table.Encode(avg)}
	e.sum, e.count = 0, 0
	return sp, avg, true
}

// EncodeSeries runs the whole online pipeline over a series and collects the
// symbolic output. It is equivalent to Horizontal(s.Resample(window), table)
// up to window alignment (Resample aligns windows to the series start; the
// Encoder aligns to absolute multiples of window, which is what the
// experiment pipeline wants for 15-minute/1-hour boundaries).
func EncodeSeries(s *timeseries.Series, table *Table, window int64) (*SymbolSeries, error) {
	e := NewEncoder(table, window)
	out := &SymbolSeries{Name: s.Name, Table: table}
	if n := len(s.Points); n > 0 {
		// Pre-size the output from the series' time span: one symbol per
		// window plus the trailing flush, so appends below never reallocate.
		// The encoder can emit at most n+1 symbols regardless of span, so
		// clamp the estimate — a sparse series must not over-allocate, and a
		// negative span (out-of-order input, surfaced as an error by Push
		// below) must not panic makeslice.
		want := n + 1
		if window > 0 {
			if est := (s.Points[n-1].T-s.Points[0].T)/window + 2; est >= 0 && est < int64(want) {
				want = int(est)
			}
		}
		out.Points = make([]SymbolPoint, 0, want)
	}
	for ps := s.Points; len(ps) > 0; ps = ps[1:] {
		// Fold the run inside the open window, then push the point that
		// leaves it.
		ps = ps[e.fold(ps):]
		if len(ps) == 0 {
			break
		}
		sp, ok, err := e.Push(ps[0])
		if err != nil {
			return nil, err
		}
		if ok {
			out.Points = append(out.Points, sp)
		}
	}
	if sp, ok := e.Flush(); ok {
		out.Points = append(out.Points, sp)
	}
	return out, nil
}

func mod64(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// TableBuilder accumulates historical measurements and learns a lookup
// table from them — the paper's bootstrap phase where "historical data"
// (the first two days per house) determines the separators.
type TableBuilder struct {
	values []float64
}

// Push records one historical measurement value.
func (b *TableBuilder) Push(v float64) { b.values = append(b.values, v) }

// PushSeries records all values of a series.
func (b *TableBuilder) PushSeries(s *timeseries.Series) {
	for _, p := range s.Points {
		b.values = append(b.values, p.V)
	}
}

// Build learns the lookup table. The builder can keep accumulating and
// build again later (e.g. periodic table refresh when the distribution
// drifts, §2.2).
func (b *TableBuilder) Build(method Method, k int) (*Table, error) {
	return Learn(method, b.values, k)
}
