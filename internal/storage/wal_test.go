package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// buildWALFixture produces one shard's log bytes through the real engine:
// two meters, a table epoch change half-way, gaps, and enough batches for
// several records — the corpus every torn-write and fuzz case mutates. It is
// written in the unsequenced 'T'/'B' records, which applyRecords decodes.
func buildWALFixture(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	table := testTable(t)
	eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	meters := []uint64{1, 2}
	for _, m := range meters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushTableLegacy(m, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < 8; idx++ {
		if idx == 5 {
			if err := eng.PushTableLegacy(1, table); err != nil { // epoch change
				t.Fatal(err)
			}
		}
		for _, m := range meters {
			if _, err := eng.AppendLegacy(m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal", "shard-0000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return raw
}

// walDir materializes a single-shard data directory holding exactly the
// given log bytes (fresh manifest, no segments).
func walDir(t testing.TB, walBytes []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := writeManifest(OsFS{}, dir, manifest{Format: manifestFormat, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", "shard-0000.wal"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// walRecord is one scanned record plus its end offset in the file (the
// truncation point if everything after it turns out torn).
type walRecord struct {
	typ  byte
	data []byte // payload after the type byte, aliasing the read buffer
	end  int64
}

// parseWAL collects everything walScan yields over raw: the records, the
// byte length of the intact prefix, and whether a torn tail was dropped.
func parseWAL(raw []byte) (recs []walRecord, valid int64, torn bool, err error) {
	sc := walScan{data: raw}
	for {
		body, err := sc.next()
		if err != nil {
			return nil, 0, false, err
		}
		if body == nil {
			return recs, int64(sc.off), sc.off < len(raw), nil
		}
		recs = append(recs, walRecord{typ: body[0], data: body[1:], end: int64(sc.off)})
	}
}

// decodeBatchPoints unpacks points [from, count) of a 'B' payload into
// SymbolPoints — the per-point decode recovery used to run, kept as the
// oracle's reference so replay-from-packed-bytes (batchHeader.apply) is
// checked against an independent reading of the same record.
func decodeBatchPoints(h batchHeader, data []byte, from int, ptsScratch []symbolic.SymbolPoint, symScratch []symbolic.Symbol) ([]symbolic.SymbolPoint, []symbolic.Symbol) {
	rest := data[batchHeaderLen:]
	symScratch = symbolic.AppendUnpackRange(symScratch[:0], rest[h.tsBytes():], h.level, from, h.count)
	pts := ptsScratch[:0]
	if h.kind == 0 {
		firstT := int64(binary.BigEndian.Uint64(rest[0:]))
		stride := int64(binary.BigEndian.Uint64(rest[8:]))
		for i, s := range symScratch {
			pts = append(pts, symbolic.SymbolPoint{T: firstT + int64(from+i)*stride, S: s})
		}
	} else {
		for i, s := range symScratch {
			pts = append(pts, symbolic.SymbolPoint{T: int64(binary.BigEndian.Uint64(rest[8*(from+i):])), S: s})
		}
	}
	return pts, symScratch
}

// applyRecords replays the first upto parsed records into a fresh in-memory
// store — the oracle for what recovery of that prefix must reproduce.
func applyRecords(t testing.TB, recs []walRecord, upto int) *server.Store {
	t.Helper()
	st := server.NewStore(1)
	var pts []symbolic.SymbolPoint
	var syms []symbolic.Symbol
	seen := map[uint64]bool{}
	ensure := func(m uint64) {
		if !seen[m] {
			if err := st.StartSession(m); err != nil {
				t.Fatal(err)
			}
			st.EndSession(m)
			seen[m] = true
		}
	}
	for _, rec := range recs[:upto] {
		switch rec.typ {
		case recTable:
			m, tbl, err := decodeTable(st, rec.data)
			if err != nil {
				t.Fatal(err)
			}
			ensure(m)
			if err := st.PushTable(m, tbl); err != nil {
				t.Fatal(err)
			}
		case recBatch:
			h, err := parseBatchHeader(rec.data)
			if err != nil {
				t.Fatal(err)
			}
			pts, syms = decodeBatchPoints(h, rec.data, 0, pts, syms)
			ensure(h.meterID)
			if _, err := AppendNext(st, h.meterID, pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// sameAggregates reports whether two stores hold the same number of meters
// and agree bit-exactly on full-range per-meter aggregates and histograms
// for every meter in testMeters, which covers every meter the WAL fixtures
// write.
func sameAggregates(t testing.TB, got, want *server.Store) bool {
	t.Helper()
	if got.TotalSymbols() != want.TotalSymbols() || meterCount(got) != meterCount(want) {
		return false
	}
	ge, we := query.New(got), query.New(want)
	for _, m := range testMeters {
		ga, gok := ge.Aggregate(m, 0, math.MaxInt64)
		wa, wok := we.Aggregate(m, 0, math.MaxInt64)
		if gok != wok || ga.Count != wa.Count ||
			math.Float64bits(ga.Sum) != math.Float64bits(wa.Sum) ||
			math.Float64bits(ga.Min) != math.Float64bits(wa.Min) ||
			math.Float64bits(ga.Max) != math.Float64bits(wa.Max) {
			return false
		}
		var gh, wh query.Histogram
		if _, err := ge.HistogramInto(&gh, m, 0, math.MaxInt64); err != nil {
			return false
		}
		if _, err := we.HistogramInto(&wh, m, 0, math.MaxInt64); err != nil {
			return false
		}
		if len(gh.Counts) != len(wh.Counts) {
			return false
		}
		for s := range gh.Counts {
			if gh.Counts[s] != wh.Counts[s] {
				return false
			}
		}
	}
	return true
}

// TestTruncatedWALRecoversPrefix is the torn-write corpus: the log cut at
// every interesting byte position must recover exactly the records that
// survived whole — never an error, never a point more or less.
func TestTruncatedWALRecoversPrefix(t *testing.T) {
	raw := buildWALFixture(t)
	recs, valid, torn, err := parseWAL(raw)
	if err != nil || torn || valid != int64(len(raw)) {
		t.Fatalf("fixture must parse clean: %v torn=%v valid=%d/%d", err, torn, valid, len(raw))
	}
	cuts := []int{0, 1, walHeaderLen - 1, walHeaderLen, walHeaderLen + 1}
	for _, rec := range recs {
		cuts = append(cuts, int(rec.end)-1, int(rec.end), int(rec.end)+5)
	}
	for _, cut := range cuts {
		if cut < 0 || cut > len(raw) {
			continue
		}
		dir := walDir(t, raw[:cut])
		eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		wantP := 0
		for _, rec := range recs {
			if rec.end <= int64(cut) {
				wantP++
			}
		}
		want := applyRecords(t, recs, wantP)
		if !sameAggregates(t, eng.Store(), want) {
			t.Fatalf("cut=%d: recovered state does not match the %d-record prefix", cut, wantP)
		}
		// The torn tail must also be truncated away so new appends start at
		// a record boundary.
		if st, err := os.Stat(filepath.Join(dir, "wal", "shard-0000.wal")); err != nil {
			t.Fatal(err)
		} else if wantEnd := recordEnd(recs, wantP); st.Size() != wantEnd {
			t.Fatalf("cut=%d: wal truncated to %d, want %d", cut, st.Size(), wantEnd)
		}
		eng.Close()
	}
}

func recordEnd(recs []walRecord, p int) int64 {
	if p == 0 {
		return 0
	}
	return recs[p-1].end
}

// TestCorruptWALFailsLoudly flips one byte in every region of a mid-log
// record — length, its complement, CRC, type, payload — and requires
// recovery to refuse with ErrWALCorrupt instead of silently dropping the
// intact, acknowledged records behind the damage. (Damage in the *final*
// record is the torn-tail case — see TestDamagedFinalRecordIsTornTail.)
func TestCorruptWALFailsLoudly(t *testing.T) {
	raw := buildWALFixture(t)
	recs, _, _, err := parseWAL(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Byte offsets inside the third record (well before EOF): header fields
	// and a payload byte.
	start := int(recs[1].end)
	probes := []int{start, start + 4, start + 8, start + walHeaderLen, start + walHeaderLen + 9}
	for _, pos := range probes {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		dir := walDir(t, mut)
		if _, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff}); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("flip at %d: Open returned %v, want ErrWALCorrupt", pos, err)
		}
	}
}

// FuzzWALReplay mutates (truncate + single byte-flip) a fixture log and
// asserts the recovery contract: either recovery fails loudly, or the
// recovered state is bit-exactly some record prefix of the original log that
// includes every record lying wholly before the first damaged byte. Silently
// dropping acknowledged records that sit before the damage — or fabricating
// state — fails the fuzz. With covered set, the mutated log sits under
// manifest-listed segments (coveredLogDir), so the damage lands on records
// replay consumes by their header alone; otherwise the directory is WAL-only.
func FuzzWALReplay(f *testing.F) {
	raw := buildWALFixture(f)
	recs, _, _, err := parseWAL(raw)
	if err != nil {
		f.Fatal(err)
	}
	covDir, covRaw, covRecs := coveredLogDir(f)
	f.Add(uint32(0), byte(0), uint32(0), false)
	f.Add(uint32(13), byte(0x80), uint32(0), false)
	f.Add(uint32(5), byte(0), uint32(100), false)
	f.Add(uint32(len(raw)-3), byte(0xFF), uint32(0), false)
	f.Add(uint32(40), byte(1), uint32(uint(len(raw)-1)), false)
	covered := int(recordEnd(covRecs, 3)) // past both tables: inside the first covered batch
	f.Add(uint32(0), byte(0), uint32(0), true)
	f.Add(uint32(covered+walHeaderLen+13), byte(0x03), uint32(0), true) // its level byte
	f.Add(uint32(covered+walHeaderLen+16), byte(0x01), uint32(0), true) // its count
	f.Add(uint32(len(covRaw)-3), byte(0xFF), uint32(0), true)           // the straddling batch
	f.Add(uint32(0), byte(0), uint32(covered), true)                    // log cut below the segments
	f.Fuzz(func(t *testing.T, pos uint32, xor byte, trunc uint32, covered bool) {
		raw, recs := raw, recs
		if covered {
			raw, recs = covRaw, covRecs
		}
		mut := append([]byte(nil), raw...)
		damagedFrom := int64(len(mut)) + 1 // "no damage" sentinel: past EOF
		if trunc != 0 && int(trunc) < len(mut) {
			mut = mut[:trunc]
			damagedFrom = int64(trunc)
		}
		if xor != 0 && len(mut) > 0 {
			p := int(pos) % len(mut)
			mut[p] ^= xor
			if int64(p) < damagedFrom {
				damagedFrom = int64(p)
			}
		}
		var dir string
		if covered {
			dir = withLog(t, covDir, mut)
		} else {
			dir = walDir(t, mut)
		}
		eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff})
		if err != nil {
			return // loud failure is always acceptable under corruption
		}
		defer eng.Close()
		// Recovery succeeded: the state must equal SOME prefix of the
		// original records…
		match := -1
		for p := len(recs); p >= 0; p-- {
			if sameAggregates(t, eng.Store(), applyRecords(t, recs, p)) {
				match = p
				break
			}
		}
		if match < 0 {
			t.Fatalf("recovered state matches no prefix of the original log (pos=%d xor=%#x trunc=%d covered=%v)", pos, xor, trunc, covered)
		}
		// …and that prefix must cover every record wholly before the damage:
		// those were acknowledged and readable, dropping them is data loss.
		mustHave := 0
		for _, rec := range recs {
			if rec.end <= damagedFrom {
				mustHave++
			}
		}
		if match < mustHave {
			t.Fatalf("recovery kept %d records but %d lie wholly before the damage at %d (pos=%d xor=%#x trunc=%d covered=%v)",
				match, mustHave, damagedFrom, pos, xor, trunc, covered)
		}
	})
}

// TestDamagedFinalRecordIsTornTail pins the OS-crash story: damage confined
// to the log's final record — complete-looking header over a hole-punched
// body, flipped CRC, zeroed pages — has no readable record behind it, so
// recovery must treat it as a torn tail and restore the prefix rather than
// refuse the directory (an fsync=group crash window must not brick the
// store).
func TestDamagedFinalRecordIsTornTail(t *testing.T) {
	raw := buildWALFixture(t)
	recs, _, _, err := parseWAL(raw)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	lastStart := int(recordEnd(recs, len(recs)-1))
	mutations := map[string]func([]byte){
		"crc flipped":    func(b []byte) { b[lastStart+9] ^= 0xFF },
		"body bit flip":  func(b []byte) { b[int(last.end)-3] ^= 0x10 },
		"header torn":    func(b []byte) { b[lastStart+5] ^= 0x01 },
		"body zero page": func(b []byte) { clear(b[lastStart+walHeaderLen+2 : int(last.end)-1]) },
	}
	for name, mutate := range mutations {
		mut := append([]byte(nil), raw...)
		mutate(mut)
		dir := walDir(t, mut)
		eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff})
		if err != nil {
			t.Fatalf("%s: final-record damage must recover as a torn tail, got %v", name, err)
		}
		want := applyRecords(t, recs, len(recs)-1)
		if !sameAggregates(t, eng.Store(), want) {
			t.Fatalf("%s: recovered state is not the all-but-last prefix", name)
		}
		if st, err := os.Stat(filepath.Join(dir, "wal", "shard-0000.wal")); err != nil {
			t.Fatal(err)
		} else if st.Size() != int64(lastStart) {
			t.Fatalf("%s: wal truncated to %d, want %d", name, st.Size(), lastStart)
		}
		eng.Close()
	}
}

// TestCorruptSegmentPayloadFailsLoudly pins the segment payload CRC: a
// flipped bit in a finished segment's data region must fail recovery
// loudly, never silently skew edge-window kernel results.
func TestCorruptSegmentPayloadFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters[:1], 20)
	if err := eng.Close(); err != nil { // finish segments into the manifest
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no finished segments (err %v)", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+5] ^= 0x04 // inside the first block's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncOff}); err == nil ||
		!strings.Contains(err.Error(), "payload CRC") {
		t.Fatalf("corrupt segment payload: got %v, want a payload CRC failure", err)
	}
}

// TestOversizedHistogramLaneFailsLoudly: footer lanes are 32-bit on disk and
// 16-bit in the store. A lane raised by 1<<16 narrows back to its old value,
// so the histogram mass check alone would pass it; the footer's CRC is
// recomputed, so only the lane bound can refuse it, and Open must.
func TestOversizedHistogramLaneFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters[:1], 20)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no finished segments (err %v)", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	trailer := data[len(data)-segTrailerLen:]
	footerOff := binary.BigEndian.Uint64(trailer)
	footer := data[footerOff : footerOff+uint64(binary.BigEndian.Uint32(trailer[8:]))]
	if k := binary.BigEndian.Uint16(footer[13:]); k != uint16(table.K()) {
		t.Fatalf("first footer entry has %d lanes, want %d", k, table.K())
	}
	lane := footer[segBlockMetaLen:]
	binary.BigEndian.PutUint32(lane, binary.BigEndian.Uint32(lane)+1<<16)
	binary.BigEndian.PutUint32(trailer[16:], crc32.Checksum(footer, crcC))
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncOff}); err == nil ||
		!strings.Contains(err.Error(), "histogram lane") {
		t.Fatalf("oversized footer lane: got %v, want a histogram lane failure", err)
	}
}

// meterCount counts the meters on st's published meter lists.
func meterCount(st *server.Store) int {
	n := 0
	for s := range st.NumShards() {
		n += len(st.ShardMeters(s))
	}
	return n
}
