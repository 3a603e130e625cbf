package server

import (
	"testing"

	"symmeter/internal/symbolic"
)

// TestCollectRangeMatchesChainWalk pins CollectRange against the unpruned
// full-chain walk: the sealed views it returns are exactly the sealed blocks
// whose [FirstT, LastT] meets the range (as a set keyed by FirstT), the tail
// is delivered through the callback exactly when the range reaches it, and
// the lock accounting holds — zero shard locks for a range that ends before
// the tail, exactly one for a range that reaches past the tail's start, even
// when it starts after the tail's last point and so gets no tail callback.
func TestCollectRangeMatchesChainWalk(t *testing.T) {
	s := NewStore(2)
	table := testTable(t)
	const w = 900
	seedRegular(t, s, table, 1, 4*BlockCap+100, w) // 4 sealed blocks + live tail
	m, _ := s.Meter(1)
	tailT, ok := liveTailStart(m)
	if !ok {
		t.Fatal("no live tail")
	}
	tailLast := tailT + 99*w // the tail holds the last 100 points

	for _, tc := range []struct {
		name     string
		t0, t1   int64
		wantTail bool
		locks    int64
	}{
		{"sealed-only", 0, tailT, false, 0},
		{"tail-touching", 0, tailT + 1, true, 1},
		{"interior", int64(BlockCap+5) * w, int64(3*BlockCap-5) * w, false, 0},
		{"tail-only", tailT, 1 << 40, true, 1},
		{"before-stream", -1000, -1, false, 0},
		// Reaches past the tail's start, so it locks, but starts one stride
		// after the tail's last point: the tail holds nothing in range.
		{"past-tail", tailLast + w, 1 << 40, false, 1},
	} {
		var wantSealed []BlockView
		wantTailN := -1
		visitChain(s, 1, func(v BlockView) {
			if v.FirstT >= tc.t1 || v.LastT() < tc.t0 {
				return
			}
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
			t.Fatalf("%s: oracle tail expectation inconsistent (chain-walk tail N=%d)", tc.name, wantTailN)
		}
		if gotTailN != wantTailN {
			t.Fatalf("%s: tail callback N = %d, chain walk saw %d", tc.name, gotTailN, wantTailN)
		}
		if len(views) != len(wantSealed) {
			t.Fatalf("%s: CollectRange returned %d sealed views, chain walk %d", tc.name, len(views), len(wantSealed))
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
				t.Fatalf("%s: view FirstT=%d differs between CollectRange and the chain walk", tc.name, v.FirstT)
			}
		}
		if locks != tc.locks {
			t.Fatalf("%s: CollectRange took %d locks, want %d", tc.name, locks, tc.locks)
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
	tailT, _ := liveTailStart(m)

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
