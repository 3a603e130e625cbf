package storage

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
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

// TestScanValidatesInternedTableBytes: the scan decodes only table bytes it
// has not interned yet, and bytes it has not seen are still validated. Meter
// 2's table record follows meter 1's byte-identical one in the same log, then
// two of its separators are swapped out of order under a correct CRC: Open
// fails with ErrWALCorrupt on a clean and on a crash directory, and leaves
// every file as it was.
func TestScanValidatesInternedTableBytes(t *testing.T) {
	table := testTable(t)
	for _, clean := range []bool{true, false} {
		dir := t.TempDir()
		opts := Options{Dir: dir, Shards: 1, Sync: SyncOff, SegmentBytes: 64 << 10}
		eng, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]symbolic.SymbolPoint, 600) // a sealed block and a tail
		for m := uint64(1); m <= 2; m++ {
			if err := eng.StartSession(m); err != nil {
				t.Fatal(err)
			}
			if err := PushNext(eng, m, table); err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				pts[i] = symbolic.SymbolPoint{T: int64(i) * 900, S: symbolic.NewSymbol(i%table.K(), table.Level())}
			}
			if _, err := AppendNext(eng, m, pts); err != nil {
				t.Fatal(err)
			}
		}
		if clean {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			eng.Abandon()
		}

		log := filepath.Join(dir, "wal", "shard-0000.wal")
		raw, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, err := parseWAL(raw)
		if err != nil {
			t.Fatal(err)
		}
		var tableRecs []int
		for i, r := range recs {
			if r.typ == recSeqTable {
				tableRecs = append(tableRecs, i)
			}
		}
		// A 't' body after its type byte: seq(8) | meterID(8) | table bytes.
		const tableAt = 16
		if len(tableRecs) != 2 || !bytes.Equal(recs[tableRecs[0]].data[tableAt:], recs[tableRecs[1]].data[tableAt:]) {
			t.Fatalf("clean=%v: fixture must log two byte-identical tables, has %d table records", clean, len(tableRecs))
		}
		// The table bytes: 'T' | level | method | min | max | separators.
		const sep = 1 + tableAt + 3 + 16
		mut := restamp(raw, recs, tableRecs[1], func(b []byte) []byte {
			var first [8]byte
			copy(first[:], b[sep:])
			copy(b[sep:], b[sep+8:sep+16])
			copy(b[sep+8:], first[:])
			if _, err := symbolic.UnmarshalTable(b[1+tableAt:]); err == nil {
				t.Fatal("fixture: the swapped separators still decode")
			}
			return b
		})
		if err := os.WriteFile(log, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		before := FileHashes(t, dir)
		if _, err := Open(opts); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("clean=%v: Open returned %v, want ErrWALCorrupt", clean, err)
		}
		after := FileHashes(t, dir)
		if !maps.Equal(before, after) {
			t.Fatalf("clean=%v: the failed Open changed the directory", clean)
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
			b.ReportAllocs()
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
