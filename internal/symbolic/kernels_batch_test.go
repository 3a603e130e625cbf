package symbolic

import (
	"math/rand"
	"testing"
)

// batchFixture builds a set of spans over several independent payloads, with
// deliberate empty and inverted spans mixed in, plus the flat index sequence
// covered by the valid spans for oracle folds.
func batchFixture(t *testing.T, rng *rand.Rand, level, nPayloads int) ([]PackedSpan, []uint32) {
	t.Helper()
	var spans []PackedSpan
	var flat []uint32
	k := 1 << uint(level)
	for p := 0; p < nPayloads; p++ {
		n := 50 + rng.Intn(200)
		payload := make([]byte, (n*level+7)/8)
		idxs := make([]uint32, n)
		for i := range idxs {
			idxs[i] = uint32(rng.Intn(k))
			PackSymbolAt(payload, level, i, idxs[i])
		}
		start := rng.Intn(n)
		end := start + rng.Intn(n-start+1)
		spans = append(spans, PackedSpan{Payload: payload, Start: start, End: end})
		flat = append(flat, idxs[start:end]...)
		if p%2 == 0 { // empty and inverted spans must contribute nothing
			spans = append(spans, PackedSpan{Payload: payload, Start: n / 2, End: n / 2})
			spans = append(spans, PackedSpan{Payload: payload, Start: n - 1, End: 0})
		}
	}
	return spans, flat
}

func TestPackedRangeHistogramBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, level := range []int{1, 2, 4, 5, 8, 11} {
		spans, flat := batchFixture(t, rng, level, 7)
		k := 1 << uint(level)
		hist := make([]uint64, k)
		PackedRangeHistogramBatch(hist, level, spans)
		want := make([]uint64, k)
		for _, idx := range flat {
			want[idx]++
		}
		for s := range want {
			if hist[s] != want[s] {
				t.Fatalf("level %d: hist[%d] = %d, want %d", level, s, hist[s], want[s])
			}
		}
	}
	// No spans at all: hist untouched.
	hist := []uint64{7, 7}
	PackedRangeHistogramBatch(hist, 1, nil)
	if hist[0] != 7 || hist[1] != 7 {
		t.Fatalf("empty batch modified hist: %v", hist)
	}
}

func TestHistogramAggregate(t *testing.T) {
	values := []float64{-3.5, 0, 2.25, 100, -8, 4, 4, 1}
	hist := []uint64{0, 2, 3, 0, 1, 0, 5, 0}
	count, sum, minV, maxV := HistogramAggregate(hist, values)
	if count != 11 {
		t.Fatalf("count = %d, want 11", count)
	}
	wantSum := 0*2 + 2.25*3 + (-8)*1 + 4*5.0
	if sum != wantSum {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
	// Extremes come only from occupied bins: -3.5 (bin 0) and 100 (bin 3)
	// have zero counts and must not leak in.
	if minV != -8 || maxV != 4 {
		t.Fatalf("min/max = %v/%v, want -8/4", minV, maxV)
	}
	if c, s, _, _ := HistogramAggregate(make([]uint64, 8), values); c != 0 || s != 0 {
		t.Fatalf("empty histogram: count %d sum %v, want 0 0", c, s)
	}
	// Large counts: sum uses v·c, so a single bin with a big count must not
	// lose precision against repeated addition within float64 exactness.
	if _, s, _, _ := HistogramAggregate([]uint64{0, 1 << 20}, []float64{0, 0.5}); s != float64(1<<20)*0.5 {
		t.Fatalf("big-count sum = %v", s)
	}
}
