package symbolic

import (
	"math"
	"math/rand"
	"testing"
)

// packPayload packs n random symbols at the given level and returns both the
// headerless payload and the symbol indices.
func packPayload(t testing.TB, rng *rand.Rand, n, level int) ([]byte, []uint32) {
	t.Helper()
	payload := make([]byte, (n*level+7)/8)
	idxs := make([]uint32, n)
	for i := range idxs {
		idxs[i] = uint32(rng.Intn(1 << uint(level)))
		PackSymbolAt(payload, level, i, idxs[i])
	}
	return payload, idxs
}

// TestPackSymbolAtMatchesCodec pins the block store's incremental packing to
// the codec's batch layout: packing one symbol at a time must produce the
// exact payload AppendPack would, for every level.
func TestPackSymbolAtMatchesCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for level := 1; level <= 12; level++ {
		for _, n := range []int{1, 2, 7, 8, 9, 96, 137} {
			syms := make([]Symbol, n)
			payload := make([]byte, (n*level+7)/8)
			for i := range syms {
				idx := rng.Intn(1 << uint(level))
				syms[i] = NewSymbol(idx, level)
				PackSymbolAt(payload, level, i, uint32(idx))
			}
			packed, err := Pack(syms)
			if err != nil {
				t.Fatal(err)
			}
			want := packed[5:] // strip codec header
			for i := range want {
				if payload[i] != want[i] {
					t.Fatalf("level %d n %d: payload[%d] = %#x, codec has %#x", level, n, i, payload[i], want[i])
				}
			}
			for i := range syms {
				if got := PackedSymbolAt(payload, level, i); got != uint32(syms[i].Index()) {
					t.Fatalf("level %d: PackedSymbolAt(%d) = %d, want %d", level, i, got, syms[i].Index())
				}
			}
		}
	}
}

// TestPackedRangeHistogramDifferential checks every level's histogram kernel
// against a naive per-symbol count over random ranges, including empty,
// single-symbol, unaligned and full ranges.
func TestPackedRangeHistogramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, level := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12} {
		k := 1 << uint(level)
		const n = 531 // prime-ish, not word aligned
		payload, idxs := packPayload(t, rng, n, level)
		ranges := [][2]int{{0, 0}, {0, n}, {1, 2}, {0, 1}, {n - 1, n}, {3, 3}}
		for i := 0; i < 40; i++ {
			a, b := rng.Intn(n+1), rng.Intn(n+1)
			if a > b {
				a, b = b, a
			}
			ranges = append(ranges, [2]int{a, b})
		}
		for _, r := range ranges {
			start, end := r[0], r[1]
			hist := make([]uint64, k)
			PackedRangeHistogram(hist, payload, level, start, end)
			want := make([]uint64, k)
			for _, idx := range idxs[start:end] {
				want[idx]++
			}
			for s := range want {
				if hist[s] != want[s] {
					t.Fatalf("level %d range [%d,%d): hist[%d] = %d, want %d", level, start, end, s, hist[s], want[s])
				}
			}
		}
	}
}

// TestPackedRangeAggregateDifferential checks sum/min/max against a naive
// decode-then-aggregate loop.
func TestPackedRangeAggregateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, level := range []int{1, 2, 3, 4, 6, 8, 10} {
		k := 1 << uint(level)
		values := make([]float64, k)
		for i := range values {
			values[i] = rng.Float64()*1000 - 200
		}
		const n = 300
		payload, idxs := packPayload(t, rng, n, level)
		for i := 0; i < 30; i++ {
			a, b := rng.Intn(n), rng.Intn(n+1)
			if a >= b {
				b = a + 1
			}
			sum, minV, maxV := PackedRangeAggregate(values, payload, level, a, b)
			var wantSum float64
			wantMin, wantMax := math.Inf(1), math.Inf(-1)
			for _, idx := range idxs[a:b] {
				v := values[idx]
				wantSum += v
				wantMin = math.Min(wantMin, v)
				wantMax = math.Max(wantMax, v)
			}
			if minV != wantMin || maxV != wantMax {
				t.Fatalf("level %d [%d,%d): min/max = %v/%v, want %v/%v", level, a, b, minV, maxV, wantMin, wantMax)
			}
			if math.Abs(sum-wantSum) > 1e-9*(1+math.Abs(wantSum)) {
				t.Fatalf("level %d [%d,%d): sum = %v, want %v", level, a, b, sum, wantSum)
			}
		}
	}
}

// TestAppendUnpackRange checks range unpacking against the recorded indices.
func TestAppendUnpackRange(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, level := range []int{1, 3, 4, 8, 11} {
		const n = 150
		payload, idxs := packPayload(t, rng, n, level)
		for _, r := range [][2]int{{0, n}, {0, 0}, {5, 6}, {17, 93}, {n - 1, n}} {
			got := AppendUnpackRange(nil, payload, level, r[0], r[1])
			if len(got) != r[1]-r[0] {
				t.Fatalf("level %d range %v: %d symbols, want %d", level, r, len(got), r[1]-r[0])
			}
			for i, s := range got {
				if uint32(s.Index()) != idxs[r[0]+i] || s.Level() != level {
					t.Fatalf("level %d range %v: symbol %d = %v, want index %d", level, r, i, s, idxs[r[0]+i])
				}
			}
		}
	}
}

// TestKernelsZeroAlloc pins the edge-block kernels to zero allocations — the
// query path's contract.
func TestKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	payload, _ := packPayload(t, rng, 512, 4)
	values := make([]float64, 16)
	var hist [16]uint64
	allocs := testing.AllocsPerRun(100, func() {
		PackedRangeHistogram(hist[:], payload, 4, 3, 509)
		if s, _, _ := PackedRangeAggregate(values, payload, 4, 3, 509); s < 0 {
			t.Fatal("negative sum")
		}
	})
	if allocs != 0 {
		t.Fatalf("kernels allocate %.1f times per run, want 0", allocs)
	}
}
