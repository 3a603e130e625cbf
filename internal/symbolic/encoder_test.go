package symbolic

import (
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/timeseries"
)

func testTable(t *testing.T, k int) *Table {
	t.Helper()
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = float64(i * 10)
	}
	tab, err := Learn(MethodMedian, vals, k)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestEncoderEmitsPerWindow(t *testing.T) {
	tab := testTable(t, 4)
	e := NewEncoder(tab, 10)
	var got []SymbolPoint
	for i := int64(0); i < 25; i++ {
		sp, ok, err := e.Push(timeseries.Point{T: i, V: float64(i * 100)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = append(got, sp)
		}
	}
	if sp, ok := e.Flush(); ok {
		got = append(got, sp)
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d symbols, want 3", len(got))
	}
	// Window [0,10): mean 450; [10,20): mean 1450; [20,25): mean 2200.
	if got[0].T != 10 || got[1].T != 20 || got[2].T != 30 {
		t.Fatalf("timestamps = %v", got)
	}
	if got[0].S == got[2].S {
		t.Fatal("low and high windows should encode differently")
	}
}

func TestEncoderWindowAlignment(t *testing.T) {
	// Windows align to absolute multiples of the window length, so 15-minute
	// symbols land on quarter hours regardless of when the stream starts.
	tab := testTable(t, 4)
	e := NewEncoder(tab, 900)
	sp, ok, err := e.Push(timeseries.Point{T: 1000, V: 1})
	if err != nil || ok {
		t.Fatalf("first push should buffer: %v %v %v", sp, ok, err)
	}
	sp, ok, err = e.Push(timeseries.Point{T: 1800, V: 1})
	if err != nil || !ok {
		t.Fatalf("crossing window boundary should emit: %v", err)
	}
	if sp.T != 1800 { // window [900,1800) stamped with its end
		t.Fatalf("emitted timestamp = %d, want 1800", sp.T)
	}
}

func TestEncoderRejectsOutOfOrder(t *testing.T) {
	tab := testTable(t, 4)
	e := NewEncoder(tab, 10)
	if _, _, err := e.Push(timeseries.Point{T: 100, V: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Push(timeseries.Point{T: 50, V: 1}); err == nil {
		t.Fatal("out-of-order point must error")
	}
}

func TestEncoderNoWindow(t *testing.T) {
	tab := testTable(t, 4)
	e := NewEncoder(tab, 0)
	sp, ok, err := e.Push(timeseries.Point{T: 7, V: 500})
	if err != nil || !ok || sp.T != 7 {
		t.Fatalf("windowless push = %v,%v,%v", sp, ok, err)
	}
	if _, ok := e.Flush(); ok {
		t.Fatal("nothing to flush in windowless mode")
	}
}

func TestEncoderFlushResets(t *testing.T) {
	tab := testTable(t, 4)
	e := NewEncoder(tab, 10)
	if _, _, err := e.Push(timeseries.Point{T: 5, V: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Flush(); !ok {
		t.Fatal("flush should emit buffered window")
	}
	if _, ok := e.Flush(); ok {
		t.Fatal("second flush should be empty")
	}
	// After flush, earlier timestamps are accepted again (new stream).
	if _, _, err := e.Push(timeseries.Point{T: 0, V: 1}); err != nil {
		t.Fatalf("restart after flush: %v", err)
	}
}

func TestNewEncoderNilTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEncoder(nil, 10)
}

func TestEncodeSeriesMatchesManualPipeline(t *testing.T) {
	// EncodeSeries over a gapless aligned series equals Resample+Horizontal.
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 3600)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	s := timeseries.FromValues("x", 0, 1, vals)
	tab, err := Learn(MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	online, err := EncodeSeries(s, tab, 900)
	if err != nil {
		t.Fatal(err)
	}
	batch := Horizontal(s.Resample(900), tab)
	if online.Len() != batch.Len() {
		t.Fatalf("lengths: online %d, batch %d", online.Len(), batch.Len())
	}
	for i := range online.Points {
		if online.Points[i] != batch.Points[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, online.Points[i], batch.Points[i])
		}
	}
}

func TestEncodeSeriesHandlesGaps(t *testing.T) {
	// A gap larger than the window: the empty window emits nothing.
	pts := []timeseries.Point{
		{T: 0, V: 100}, {T: 1, V: 100},
		{T: 35, V: 900}, // windows [10,20) and [20,30) are empty
	}
	s := timeseries.MustNew("g", pts)
	tab := testTable(t, 4)
	ss, err := EncodeSeries(s, tab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (gap windows skipped)", ss.Len())
	}
	if ss.Points[0].T != 10 || ss.Points[1].T != 40 {
		t.Fatalf("timestamps = %v", ss.Points)
	}
}

func TestTableBuilder(t *testing.T) {
	var b TableBuilder
	if _, err := b.Build(MethodMedian, 4); err == nil {
		t.Fatal("empty builder must not build")
	}
	s := timeseries.FromValues("h", 0, 1, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	b.PushSeries(s)
	b.Push(100)
	if b.Count() != 9 {
		t.Fatalf("Count = %d", b.Count())
	}
	tab, err := b.Build(MethodMedian, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.K() != 4 {
		t.Fatalf("k = %d", tab.K())
	}
	// Builder keeps accumulating for periodic refresh.
	b.Push(200)
	tab2, err := b.Build(MethodMedian, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.separators[2] <= tab.separators[2] {
		t.Fatal("refreshed table should reflect the new high value")
	}
}

func TestOnlineEqualsOfflineOnDataset(t *testing.T) {
	// End-to-end invariant used by the experiments: learning on two days
	// then streaming the rest equals batch encoding of the rest.
	rng := rand.New(rand.NewSource(31))
	n := 4 * 86400 / 60 // four days at one-minute samples
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64() + 5)
	}
	s := timeseries.FromValues("h", 0, 60, vals)
	twoDays := s.Slice(0, 2*86400)
	rest := s.Slice(2*86400, math.MaxInt64)

	var b TableBuilder
	b.PushSeries(twoDays)
	tab, err := b.Build(MethodDistinctMedian, 16)
	if err != nil {
		t.Fatal(err)
	}
	online, err := EncodeSeries(rest, tab, 3600)
	if err != nil {
		t.Fatal(err)
	}
	batch := Horizontal(rest.Resample(3600), tab)
	if online.Len() != batch.Len() {
		t.Fatalf("lengths differ: %d vs %d", online.Len(), batch.Len())
	}
	for i := range online.Points {
		if online.Points[i].S != batch.Points[i].S {
			t.Fatalf("symbol mismatch at %d", i)
		}
	}
}

// TestEncodeSeriesPresizeClamp guards the output pre-sizing against
// pathological inputs: out-of-order points must surface the encoder's error
// (not a makeslice panic from a negative span), and a sparse series must
// not allocate capacity proportional to its time span.
func TestEncodeSeriesPresizeClamp(t *testing.T) {
	table, err := NewTable(2, []float64{5}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	outOfOrder := &timeseries.Series{Name: "x", Points: []timeseries.Point{{T: 100000, V: 1}, {T: 10, V: 2}}}
	if _, err := EncodeSeries(outOfOrder, table, 900); err == nil {
		t.Fatal("out-of-order series must error")
	}
	sparse := &timeseries.Series{Name: "y", Points: []timeseries.Point{{T: 0, V: 1}, {T: 1 << 40, V: 2}}}
	ss, err := EncodeSeries(sparse, table, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Points) != 2 {
		t.Fatalf("sparse series encoded %d symbols, want 2", len(ss.Points))
	}
	if c := cap(ss.Points); c > 3 {
		t.Fatalf("sparse series allocated capacity %d, want ≤ 3 (n+1 clamp)", c)
	}
}
