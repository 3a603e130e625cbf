package symbolic

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func mustTable(t *testing.T, k int, seps []float64, min, max float64) *Table {
	t.Helper()
	tab, err := NewTable(k, seps, min, max)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(3, []float64{1, 2}, 0, 10); err == nil {
		t.Fatal("k=3 should be rejected")
	}
	if _, err := NewTable(4, []float64{1, 2}, 0, 10); err == nil {
		t.Fatal("wrong separator count should be rejected")
	}
	if _, err := NewTable(4, []float64{3, 2, 1}, 0, 10); err == nil {
		t.Fatal("decreasing separators should be rejected")
	}
	if _, err := NewTable(4, []float64{1, 2, 3}, 10, 0); err == nil {
		t.Fatal("min > max should be rejected")
	}
	if _, err := NewTable(4, []float64{1, 2, 3}, 0, 10); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
}

// TestNewTableHeapBytes pins what one level-4 lookup table costs on the
// heap: the table is shipped once per meter and epoch and kept for the
// meter's life, so it must stay the separators, the reconstruction values
// and their bookkeeping.
func TestNewTableHeapBytes(t *testing.T) {
	seps := make([]float64, 15)
	for i := range seps {
		seps[i] = float64(i+1) * 100
	}
	const n = 1000
	keep := make([]*Table, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = mustTable(t, 16, seps, 0, 1600)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("level-4 table: %.0f heap bytes", per)
	if per > 1024 {
		t.Fatalf("a level-4 table costs %.0f heap bytes, want <= 1024", per)
	}
}

func TestEncodeDefinition3(t *testing.T) {
	// k=4, separators {10, 20, 30}; Definition 3 bins are (βj-1, βj].
	tab := mustTable(t, 4, []float64{10, 20, 30}, 0, 40)
	cases := []struct {
		v    float64
		want string
	}{
		{-5, "00"}, // below range → a1
		{10, "00"}, // v <= β1 → a1 (boundary belongs to lower bin)
		{10.1, "01"},
		{20, "01"},
		{25, "10"},
		{30, "10"},
		{30.1, "11"}, // v > βk-1 → ak
		{1e9, "11"},
	}
	for _, c := range cases {
		if got := tab.Encode(c.v).String(); got != c.want {
			t.Errorf("Encode(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestBoundsAndCenter(t *testing.T) {
	tab := mustTable(t, 4, []float64{10, 20, 30}, 0, 40)
	checks := []struct {
		sym    Symbol
		lo, hi float64
		center float64
	}{
		{NewSymbol(0, 2), 0, 10, 5},
		{NewSymbol(1, 2), 10, 20, 15},
		{NewSymbol(2, 2), 20, 30, 25},
		{NewSymbol(3, 2), 30, 40, 35},
	}
	for _, c := range checks {
		s := c.sym
		lo, hi, err := tab.Bounds(s)
		if err != nil || lo != c.lo || hi != c.hi {
			t.Errorf("Bounds(%s) = %v,%v,%v want %v,%v", c.sym, lo, hi, err, c.lo, c.hi)
		}
		ctr, err := tab.Center(s)
		if err != nil || ctr != c.center {
			t.Errorf("Center(%s) = %v,%v want %v", c.sym, ctr, err, c.center)
		}
	}
	wrong := NewSymbol(0, 1)
	if _, _, err := tab.Bounds(wrong); err == nil {
		t.Fatal("Bounds must reject level mismatch")
	}
	if _, err := tab.Value(wrong); err == nil {
		t.Fatal("Value must reject level mismatch")
	}
}

func TestValueFallsBackToCenter(t *testing.T) {
	tab := mustTable(t, 2, []float64{10}, 0, 20)
	s0 := NewSymbol(0, 1)
	v, err := tab.Value(s0)
	if err != nil || v != 5 {
		t.Fatalf("Value = %v,%v want 5 (center fallback)", v, err)
	}
	// A table is immutable, so one with representatives is built from bytes.
	b := MarshalTable(tab)
	reprAt := TableWireSize(tab.K()) - 8*tab.K()
	for i, r := range []float64{3, 17} {
		binary.LittleEndian.PutUint64(b[reprAt+8*i:], math.Float64bits(r))
	}
	if tab, err = UnmarshalTable(b); err != nil {
		t.Fatal(err)
	}
	v, _ = tab.Value(s0)
	if v != 3 {
		t.Fatalf("Value = %v, want 3 (representative)", v)
	}
	if _, err := UnmarshalTable(b[:len(b)-8]); err == nil {
		t.Fatal("wrong representative count must error")
	}
}

func TestCoarsenTable(t *testing.T) {
	tab := mustTable(t, 8, []float64{1, 2, 3, 4, 5, 6, 7}, 0, 8)
	c, err := tab.Coarsen(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.separators, []float64{2, 4, 6}) {
		t.Fatalf("coarse separators = %v", c.separators)
	}
	c2, err := tab.Coarsen(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2.separators, []float64{4}) {
		t.Fatalf("coarse separators = %v", c2.separators)
	}
	if _, err := tab.Coarsen(16); err == nil {
		t.Fatal("cannot coarsen upward")
	}
	if _, err := tab.Coarsen(3); err == nil {
		t.Fatal("cannot coarsen to non-power-of-two")
	}
}

// The paper's §4 flexibility claim, as a property: encoding with a fine
// table then coarsening the symbol equals encoding directly with the
// coarsened table.
func TestCoarsenCommutesWithEncode(t *testing.T) {
	f := func(seed int64, kExp, k2Exp uint8, raw []float64) bool {
		rng := rand.New(rand.NewSource(seed))
		kE := int(kExp%4) + 2    // k in {4..32}
		k2E := int(k2Exp)%kE + 1 // k2 exponent in {1..kE}
		k, k2 := 1<<uint(kE), 1<<uint(k2E)
		// Training data.
		n := 50 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		for _, m := range []Method{MethodUniform, MethodMedian, MethodDistinctMedian} {
			fine, err := Learn(m, vals, k)
			if err != nil {
				return false
			}
			coarse, err := fine.Coarsen(k2)
			if err != nil {
				return false
			}
			probe := append(append([]float64(nil), raw...), vals[:10]...)
			probe = append(probe, -1, 0, 1e12, vals[0])
			for _, v := range probe {
				if math.IsNaN(v) {
					continue
				}
				a, err := fine.Encode(v).Coarsen(coarse.Level())
				if err != nil {
					return false
				}
				b := coarse.Encode(v)
				if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode respects separator boundaries — the returned symbol's
// Bounds always contain the value (within the table's range).
func TestEncodeBoundsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 300)
		for i := range vals {
			vals[i] = rng.NormFloat64()*50 + 200
		}
		tab, err := Learn(MethodMedian, vals, 16)
		if err != nil {
			return false
		}
		for _, v := range vals {
			s := tab.Encode(v)
			lo, hi, err := tab.Bounds(s)
			if err != nil {
				return false
			}
			// Definition 3: bins are (lo, hi]; the extreme bins absorb
			// out-of-range values, and the global min sits in bin 0.
			if s.Index() > 0 && v <= lo {
				return false
			}
			if s.Index() < tab.K()-1 && v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableString(t *testing.T) {
	tab := mustTable(t, 2, []float64{5}, 0, 10)
	if s := tab.String(); s == "" {
		t.Fatal("String should not be empty")
	}
}

func TestExpertTableLowHigh(t *testing.T) {
	// The paper's §3.2 example: "low" below a threshold, "high" above it.
	tab, err := ExpertTable([]float64{500}, 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.K() != 2 {
		t.Fatalf("k = %d", tab.K())
	}
	if tab.Encode(100).String() != "0" || tab.Encode(900).String() != "1" {
		t.Fatal("threshold semantics wrong")
	}
	if tab.Encode(500).String() != "0" {
		t.Fatal("boundary belongs to the low symbol (Definition 3)")
	}
}

func TestExpertTableValidation(t *testing.T) {
	if _, err := ExpertTable([]float64{1, 2}, 0, 10); err == nil {
		t.Fatal("k=3 should be rejected")
	}
	if _, err := ExpertTable([]float64{2, 1, 3}, 0, 10); err == nil {
		t.Fatal("unsorted separators should be rejected")
	}
}
