package server

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"testing"
	"unique"

	"symmeter/internal/symbolic"
)

// internFixture is a level-3 table whose last bin saw no training data, so
// its representative is NaN and its value the bin's center.
func internFixture(t testing.TB) *symbolic.Table {
	t.Helper()
	table, err := symbolic.NewTable(8, []float64{10, 20, 30, 40, 50, 60, 70}, 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	return withRepresentatives(t, table, []float64{5, 15.5, 25, 35, 45, 55, 65, math.NaN()})
}

// decoded returns a fresh decoded copy of the wire bytes, edited by edit.
func decoded(t testing.TB, table *symbolic.Table, edit func(b []byte)) *symbolic.Table {
	t.Helper()
	b := symbolic.MarshalTable(table)
	if edit != nil {
		edit(b)
	}
	c, err := symbolic.UnmarshalTable(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withRepresentatives returns a table with table's bytes but for its
// representatives, which are repr: a table is immutable, so one with chosen
// values is built from its bytes.
func withRepresentatives(t testing.TB, table *symbolic.Table, repr []float64) *symbolic.Table {
	t.Helper()
	return decoded(t, table, func(b []byte) {
		at := len(b) - 8*len(repr)
		for i, r := range repr {
			binary.LittleEndian.PutUint64(b[at+8*i:], math.Float64bits(r))
		}
	})
}

// TestTablesInterned: byte-identical tables become one table whichever way
// they arrive — PushTableSeq, PushTable, InternTable for RestoreMeter, again
// on the same meter — and it is the first of them itself, since a table is
// immutable; a lookup by bytes that hits decodes nothing and allocates
// nothing. Tables differing in one bit stay apart, even a NaN
// representative's payload that leaves every reconstruction value equal.
func TestTablesInterned(t *testing.T) {
	st := NewStore(4)
	base := internFixture(t)
	first := func(m uint64) *symbolic.Table {
		t.Helper()
		snap, ok := st.Snapshot(m)
		if !ok || len(snap.Tables) == 0 {
			t.Fatalf("meter %d has no table", m)
		}
		return snap.Tables[0]
	}
	start := func(m uint64) {
		t.Helper()
		if err := st.StartSession(m); err != nil {
			t.Fatal(err)
		}
	}

	pushed := decoded(t, base, nil)
	start(1)
	if _, err := st.PushTableSeq(1, 1, pushed); err != nil {
		t.Fatal(err)
	}
	start(2)
	if err := st.PushTable(2, decoded(t, base, nil)); err != nil {
		t.Fatal(err)
	}
	if err := st.PushTable(2, decoded(t, base, nil)); err != nil { // a second epoch, same bytes
		t.Fatal(err)
	}
	raw := symbolic.MarshalTable(base)
	restored, err := st.InternTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RestoreMeter(3, 0, []*symbolic.Table{restored}, nil); err != nil {
		t.Fatal(err)
	}
	canon := first(1)
	if canon != pushed {
		t.Fatal("the store copied the first table with its bytes instead of keeping it")
	}
	snap2, _ := st.Snapshot(2)
	for _, got := range []*symbolic.Table{first(2), snap2.Tables[1], first(3)} {
		if got != canon {
			t.Fatal("byte-identical tables were not interned into one")
		}
	}
	if n := testing.AllocsPerRun(10, func() { st.InternTable(raw) }); n != 0 {
		t.Fatalf("interning known bytes allocates %v times", n)
	}

	// The last representative's bytes: the header, min and max, seven
	// separators, then eight representatives.
	const lastRepr = 3 + (2+7+7)*8
	flipBit := decoded(t, base, func(b []byte) { b[3+2*8+3*8] ^= 1 }) // the fourth separator's low bit
	otherNaN := decoded(t, base, func(b []byte) {
		binary.LittleEndian.PutUint64(b[lastRepr:], 0x7FF8_0000_0000_0002)
	})
	if !slices.Equal(otherNaN.ReconstructionValues(), base.ReconstructionValues()) {
		t.Fatal("fixture: a NaN payload should not change the values")
	}
	for m, table := range map[uint64]*symbolic.Table{4: flipBit, 5: otherNaN} {
		start(m)
		if err := st.PushTable(m, table); err != nil {
			t.Fatal(err)
		}
	}
	if first(4) == canon || first(5) == canon || first(4) == first(5) {
		t.Fatal("tables differing in one bit were interned into one")
	}
}

// BenchmarkInternTable is the table set's lookup of a table (one marshal
// and one map probe under the store mutex) and of table bytes, as recovery
// makes it, against the stdlib alternative: unique.Make interns the key
// string (a copy of the bytes per call) and a sync.Map from handle to table
// still has to sit beside it.
func BenchmarkInternTable(b *testing.B) {
	tables := make([]*symbolic.Table, 8)
	for i := range tables {
		vals := make([]float64, 512)
		for j := range vals {
			vals[j] = float64(j*(i+3)%997) + 0.25
		}
		t, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
		if err != nil {
			b.Fatal(err)
		}
		tables[i] = t
	}
	b.Run("map", func(b *testing.B) {
		var ts tableSet
		i := 0
		for b.Loop() {
			ts.table(tables[i%len(tables)])
			i++
		}
	})
	b.Run("bytes", func(b *testing.B) {
		raws := make([][]byte, len(tables))
		for i, t := range tables {
			raws[i] = symbolic.MarshalTable(t)
		}
		var ts tableSet
		i := 0
		for b.Loop() {
			if _, err := ts.bytes(raws[i%len(raws)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("unique", func(b *testing.B) {
		var mu sync.Mutex
		var key []byte
		var byHandle sync.Map // unique.Handle[string] → *symbolic.Table
		i := 0
		for b.Loop() {
			t := tables[i%len(tables)]
			mu.Lock()
			key = symbolic.AppendTable(key[:0], t)
			h := unique.Make(string(key))
			if _, ok := byHandle.Load(h); !ok {
				c, _ := symbolic.UnmarshalTable(key)
				byHandle.Store(h, c)
			}
			mu.Unlock()
			i++
		}
	})
}

// TestTableSetHashCollision: a table whose hash an interned table with
// other bytes holds is answered with a table of its own bytes, not the
// other table — the caller's table itself, or one decoded from the bytes —
// and the interned one is still found. A real collision of the 64-bit hash
// cannot be built, so the test plants the first table under the second's
// hash.
func TestTableSetHashCollision(t *testing.T) {
	var ts tableSet
	a := internFixture(t)
	b := decoded(t, a, func(b []byte) { b[3] ^= 1 }) // min's low bit
	ca := ts.table(a)
	rawB := symbolic.MarshalTable(b)
	ts.tables[maphash.Bytes(tableSeed, rawB)] = ca
	if cb := ts.table(b); cb != b {
		t.Fatal("a colliding table was not answered with itself")
	}
	cb, err := ts.bytes(rawB)
	if err != nil {
		t.Fatal(err)
	}
	if cb == ca || !slices.Equal(symbolic.MarshalTable(cb), rawB) {
		t.Fatal("colliding bytes were not answered with a table of their own")
	}
	if ts.table(decoded(t, a, nil)) != ca {
		t.Fatal("an interned table was not found again by its bytes")
	}
	if c, err := ts.bytes(symbolic.MarshalTable(a)); err != nil || c != ca {
		t.Fatal("an interned table was not found again by its bytes")
	}
}

// TestFailedRestoreInternsNothing: RestoreMeter installs the tables it is
// given and interns none, so a corrupt meter leaves no table in the set.
func TestFailedRestoreInternsNothing(t *testing.T) {
	st := NewStore(4)
	table := internFixture(t)
	bad := SealedBlock{FirstT: 0, Stride: 900, N: 4, Level: table.Level() + 1, Payload: make([]byte, 4)}
	if err := st.RestoreMeter(1, 1, []*symbolic.Table{table}, []SealedBlock{bad}); err == nil {
		t.Fatal("a block at the wrong level was restored")
	}
	if n := len(st.tables.tables); n != 0 {
		t.Fatalf("a failed restore left %d tables interned", n)
	}
}

// TestRepushedTableFoldsAsOne: a meter that re-pushes a byte-identical table
// as a new object holds one interned table for both epochs, so Aggregate
// folds the edge spans on either side of the re-push into one run, exactly
// as it does for a meter that re-pushes the same object: the two answers are
// bit-equal, Sum included. Without interning, the new object would open a
// second run, and the Sum could differ in its last bits.
func TestRepushedTableFoldsAsOne(t *testing.T) {
	st := NewStore(4)
	base := levelTable(t, 4)
	syms := func(n, off int) []symbolic.SymbolPoint {
		pts := make([]symbolic.SymbolPoint, n)
		for i := range pts {
			pts[i] = symbolic.SymbolPoint{T: int64(off+i) * 900, S: symbolic.NewSymbol((i*7+off)%16, 4)}
		}
		return pts
	}
	// Epoch 0 seals a full block and a 188-point one at the re-push; epoch 1
	// seals a full block and keeps an 88-point tail.
	for m, second := range map[uint64]*symbolic.Table{1: base, 2: decoded(t, base, nil)} {
		if err := st.StartSession(m); err != nil {
			t.Fatal(err)
		}
		for seq, step := range []func(uint64) error{
			func(seq uint64) error { _, err := st.PushTableSeq(m, seq, base); return err },
			func(seq uint64) error { _, _, err := st.AppendSeq(m, seq, syms(700, 0)); return err },
			func(seq uint64) error { _, err := st.PushTableSeq(m, seq, second); return err },
			func(seq uint64) error { _, _, err := st.AppendSeq(m, seq, syms(600, 700)); return err },
		} {
			if err := step(uint64(seq + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if snap, _ := st.Snapshot(2); len(snap.Tables) != 2 || snap.Tables[0] != snap.Tables[1] {
		t.Fatal("a re-pushed byte-identical table was not interned into the first")
	}
	// From inside epoch 0's second block to inside epoch 1's first: two
	// sealed edge spans, one under each epoch, folded back to back.
	t0, t1 := int64(600*900), int64(1000*900)
	var got [3]Agg
	for m := uint64(1); m <= 2; m++ {
		meter, _ := st.Meter(m)
		var sc FoldScratch
		meter.Aggregate(&got[m], &sc, t0, t1)
	}
	if got[1].Count != 400 || got[1] != got[2] || math.Float64bits(got[1].Sum) != math.Float64bits(got[2].Sum) {
		t.Fatalf("re-pushed copy %+v, re-pushed object %+v", got[2], got[1])
	}
}
