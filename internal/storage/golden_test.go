package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"symmeter/internal/symbolic"
)

// onDiskGolden is the SHA-256 over every WAL and segment file writeFixedStream
// leaves behind, as computed at the commit before the store
// started committing packed runs (PR 13): the WAL record and segment formats
// are frozen at manifest format 3, so any change to this value is a format
// change and needs the manifest bump and migration ROADMAP's versioning rule
// asks for.
const onDiskGolden = "af40c2e98dd1977279219fee654679c9b214f87f74c85a1be802bd90658e6210"

// fixedStreamMeters are the meters writeFixedStream fills, one per level.
var fixedStreamMeters = []uint64{1, 2, 3, 4, 5}

// writeFixedStream drives a fixed stream through the engine: five symbol
// levels (meter i+1 at level {1, 3, 4, 7, 11}[i]), sequenced and legacy
// records, batch lengths that leave the tail at every bit offset, arithmetic
// (kind 0) and gapped (kind 1) batches, and enough points to seal and spill
// blocks. mid, when non-nil, runs after each meter's eighth batch.
func writeFixedStream(t testing.TB, eng *Engine, mid func()) {
	t.Helper()
	for i, level := range []int{1, 3, 4, 7, 11} {
		m, k := fixedStreamMeters[i], 1<<level
		seps := make([]float64, k-1)
		for j := range seps {
			seps[j] = float64(j + 1)
		}
		table, err := symbolic.NewTable(k, seps, 0, float64(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		sequenced := i%2 == 0
		if sequenced {
			_, err = eng.PushTableSeq(m, 1, table)
		} else {
			err = eng.PushTableLegacy(m, table)
		}
		if err != nil {
			t.Fatal(err)
		}
		var ts int64
		for b := 0; b < 14; b++ {
			n := []int{96, 1, 33, 200}[b%4]
			pts := make([]symbolic.SymbolPoint, n)
			for j := range pts {
				pts[j] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol((int(m)*31+b*97+j*13)%k, level)}
				ts += 900
				if b%5 == 4 && j == n/2 {
					ts += 450 // a gap inside the batch: explicit timestamps (kind 1)
				}
			}
			if sequenced {
				_, _, err = eng.AppendSeq(m, uint64(b+2), pts)
			} else {
				_, err = eng.AppendLegacy(m, pts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if b == 7 && mid != nil {
				mid()
			}
		}
		eng.EndSession(m)
	}
}

// TestOnDiskBytesGolden requires the bytes writeFixedStream leaves on disk to
// be exactly what the per-point commit path wrote for the same stream.
func TestOnDiskBytesGolden(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(Options{Dir: dir, Shards: 2, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	writeFixedStream(t, eng, nil)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	files := 0
	for _, sub := range []string{"wal", "seg"} {
		names, err := filepath.Glob(filepath.Join(dir, sub, "*")) // Glob sorts
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s/%s %d\n", sub, filepath.Base(name), len(raw))
			h.Write(raw)
			files++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != onDiskGolden {
		t.Fatalf("%d WAL and segment files hash to %s, want %s: the on-disk bytes changed", files, got, onDiskGolden)
	}
}
