package storage

import (
	"runtime"
	"testing"

	"symmeter/internal/symbolic"
)

// sharedTableDir writes meters 1..meters, each pushing its own decoded copy
// of one of tables (meter m takes tables[m%len]) and days of 96 quarter-hour
// symbols, and leaves the directory as a clean close or a crash leaves it.
func sharedTableDir(t testing.TB, meters, days int, tables []*symbolic.Table, clean bool) string {
	t.Helper()
	dir := t.TempDir()
	eng, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncOff, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]symbolic.SymbolPoint, 96)
	for m := 1; m <= meters; m++ {
		id := uint64(m)
		table, err := symbolic.UnmarshalTable(symbolic.MarshalTable(tables[m%len(tables)]))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.StartSession(id); err != nil {
			t.Fatal(err)
		}
		if err := PushNext(eng, id, table); err != nil {
			t.Fatal(err)
		}
		for d := range days {
			for i := range pts {
				pts[i] = symbolic.SymbolPoint{T: int64(d*96+i) * 900, S: symbolic.NewSymbol((m+i)%table.K(), table.Level())}
			}
			if _, err := AppendNext(eng, id, pts); err != nil {
				t.Fatal(err)
			}
		}
		eng.EndSession(id)
	}
	if clean {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		eng.Abandon()
	}
	return dir
}

// internTables returns n distinct level-4 tables.
func internTables(t testing.TB, n int) []*symbolic.Table {
	t.Helper()
	tables := make([]*symbolic.Table, n)
	for i := range tables {
		vals := make([]float64, 1024)
		for j := range vals {
			vals[j] = float64(j*(7+2*i)%4001) + 0.5
		}
		tables[i] = mustTable(vals)
	}
	return tables
}

// TestRecoveryInternsTables: after a clean and after a crash Open, meters
// whose logs hold byte-identical tables share one decoded *Table — one per
// distinct table, not one per meter — and meters with another table do not
// share it.
func TestRecoveryInternsTables(t *testing.T) {
	tables := internTables(t, 2)
	for _, clean := range []bool{true, false} {
		dir := sharedTableDir(t, 12, 6, tables, clean)
		re := openTest(t, dir, SyncOff)
		byTable := map[int]*symbolic.Table{}
		for m := 1; m <= 12; m++ {
			snap, ok := re.Store().Snapshot(uint64(m))
			if !ok || len(snap.Tables) != 1 {
				t.Fatalf("clean=%v meter %d: %d tables after recovery", clean, m, len(snap.Tables))
			}
			got := snap.Tables[0]
			if want, seen := byTable[m%2]; seen && got != want {
				t.Fatalf("clean=%v meter %d: recovered its own copy of a shared table", clean, m)
			}
			byTable[m%2] = got
		}
		if byTable[0] == byTable[1] {
			t.Fatalf("clean=%v: two different tables recovered as one", clean)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRestartHeapPerMeter reports the live heap a meter costs after a
// clean restart: 4 096 meters of one day (96 symbols) each, recovered by
// Open, with 8 tables shared by all meters and with one table per meter.
// The difference is the decoded table a meter keeps when no other meter
// has its bytes.
func BenchmarkRestartHeapPerMeter(b *testing.B) {
	const meters = 4096
	for _, c := range []struct {
		name   string
		tables int
	}{{"8-tables", 8}, {"own-table", meters}} {
		b.Run(c.name, func(b *testing.B) {
			dir := sharedTableDir(b, meters, 1, internTables(b, c.tables), true)
			var perMeter float64
			for b.Loop() {
				before := liveHeap()
				eng, err := Open(Options{Dir: dir, Shards: 16, Sync: SyncOff, SegmentBytes: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				perMeter = float64(liveHeap()-before) / meters
				runtime.KeepAlive(eng)
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perMeter, "heap-B/meter")
		})
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	for range 2 {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
