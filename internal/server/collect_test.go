package server

import (
	"testing"

	"symmeter/internal/symbolic"
)

// TestCollectRangeMatchesVisitRange pins CollectRange against VisitRange:
// same sealed blocks (as a set keyed by FirstT), the tail delivered through
// the callback exactly when the range reaches it, and identical lock
// accounting — zero shard locks for a sealed-only range, exactly one for a
// tail-touching one.
func TestCollectRangeMatchesVisitRange(t *testing.T) {
	s := NewStore(2)
	table := testTable(t)
	const w = 900
	seedRegular(t, s, table, 1, 4*BlockCap+100, w) // 4 sealed blocks + live tail
	m, _ := s.Meter(1)
	tailT, ok := m.LiveTailStart()
	if !ok {
		t.Fatal("no live tail")
	}

	for _, tc := range []struct {
		name     string
		t0, t1   int64
		wantTail bool
	}{
		{"sealed-only", 0, tailT, false},
		{"tail-touching", 0, tailT + 1, true},
		{"interior", int64(BlockCap+5) * w, int64(3*BlockCap-5) * w, false},
		{"tail-only", tailT, 1 << 40, true},
		{"before-stream", -1000, -1, false},
	} {
		var wantSealed []BlockView
		wantTailN := -1
		m.VisitRange(tc.t0, tc.t1, func(v BlockView) {
			if v.FirstT >= tailT {
				wantTailN = v.N
				return
			}
			wantSealed = append(wantSealed, v)
		})

		before := s.QueryLockAcquisitions()
		gotTailN := -1
		views := m.CollectRange(tc.t0, tc.t1, nil, func(v BlockView) { gotTailN = v.N })
		locks := s.QueryLockAcquisitions() - before

		if (wantTailN >= 0) != tc.wantTail {
			t.Fatalf("%s: oracle tail expectation inconsistent (VisitRange tail N=%d)", tc.name, wantTailN)
		}
		if gotTailN != wantTailN {
			t.Fatalf("%s: tail callback N = %d, VisitRange saw %d", tc.name, gotTailN, wantTailN)
		}
		if len(views) != len(wantSealed) {
			t.Fatalf("%s: CollectRange returned %d sealed views, VisitRange %d", tc.name, len(views), len(wantSealed))
		}
		byFirstT := map[int64]BlockView{}
		for _, v := range wantSealed {
			byFirstT[v.FirstT] = v
		}
		for _, v := range views {
			want, ok := byFirstT[v.FirstT]
			if !ok {
				t.Fatalf("%s: CollectRange returned unexpected block FirstT=%d", tc.name, v.FirstT)
			}
			if v.N != want.N || v.Level != want.Level || v.Sum != want.Sum || &v.Payload[0] != &want.Payload[0] {
				t.Fatalf("%s: view FirstT=%d differs between CollectRange and VisitRange", tc.name, v.FirstT)
			}
		}
		wantLocks := int64(0)
		if tc.wantTail {
			wantLocks = 1
		}
		if locks != wantLocks {
			t.Fatalf("%s: CollectRange took %d locks, want %d", tc.name, locks, wantLocks)
		}
	}

	// Empty and inverted ranges return dst unchanged without locking.
	dst := make([]BlockView, 3, 8)
	before := s.QueryLockAcquisitions()
	if got := m.CollectRange(5, 5, dst, func(BlockView) { t.Fatal("tail callback on empty range") }); len(got) != 3 {
		t.Fatalf("empty range grew dst to %d views", len(got))
	}
	if got := m.CollectRange(10, 5, dst, func(BlockView) { t.Fatal("tail callback on inverted range") }); len(got) != 3 {
		t.Fatalf("inverted range grew dst to %d views", len(got))
	}
	if got := s.QueryLockAcquisitions() - before; got != 0 {
		t.Fatalf("degenerate ranges took %d locks", got)
	}
}

// TestCollectRangeViewsRetainable pins the retention contract: sealed views
// collected before further ingest keep reading the same bytes after the
// store has sealed more blocks, grown its index and changed table epochs.
func TestCollectRangeViewsRetainable(t *testing.T) {
	s := NewStore(1)
	table := testTable(t)
	const w = 900
	seedRegular(t, s, table, 1, 2*BlockCap+10, w)
	m, _ := s.Meter(1)
	tailT, _ := m.LiveTailStart()

	views := m.CollectRange(0, tailT, nil, func(BlockView) {})
	if len(views) != 2 {
		t.Fatalf("collected %d sealed views, want 2", len(views))
	}
	histBefore := make([][]uint64, len(views))
	for i, v := range views {
		histBefore[i] = make([]uint64, 1<<uint(v.Level))
		symbolic.PackedRangeHistogram(histBefore[i], v.Payload, v.Level, 0, v.N)
	}

	// Push the stream through several more seals and a table epoch change.
	seedRegular(t, s, table, 1, 3*BlockCap, w) // continues via new session
	if got := sealedBlocks(m); got < 5 {
		t.Fatalf("sealed blocks after second seed = %d, want >= 5", got)
	}

	for i, v := range views {
		hist := make([]uint64, 1<<uint(v.Level))
		symbolic.PackedRangeHistogram(hist, v.Payload, v.Level, 0, v.N)
		for sym := range hist {
			if hist[sym] != histBefore[i][sym] {
				t.Fatalf("retained view %d: hist[%d] changed %d -> %d after further ingest", i, sym, histBefore[i][sym], hist[sym])
			}
		}
	}
}
