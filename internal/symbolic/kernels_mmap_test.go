//go:build unix

package symbolic

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// The compressed-domain kernels operate on whatever []byte the block store
// hands them — which, once the storage layer spills sealed blocks, is a
// read-only shared mapping of a segment file. This test pins that contract
// at the kernel level: every kernel must produce bit-identical results over
// an mmapped copy of a payload, including the word-at-a-time paths that
// read the payload 8 bytes at a time via binary.BigEndian.Uint64.
func TestKernelsOverMmappedPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, level := range []int{1, 2, 4, 8, 12} {
		k := 1 << uint(level)
		const n = 1337
		heap := make([]byte, (n*level+7)/8)
		for pos := 0; pos < n; pos++ {
			PackSymbolAt(heap, level, pos, uint32(rng.Intn(k)))
		}
		values := make([]float64, k)
		for i := range values {
			values[i] = float64(i)*1.5 - 3
		}

		path := filepath.Join(t.TempDir(), "payload.bin")
		if err := os.WriteFile(path, heap, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := syscall.Mmap(int(f.Fd()), 0, len(heap), syscall.PROT_READ, syscall.MAP_SHARED)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		defer syscall.Munmap(mapped)

		ranges := [][2]int{{0, n}, {3, n - 5}, {17, 18}, {130, 1031}}
		for _, r := range ranges {
			start, end := r[0], r[1]
			hh := make([]uint64, k)
			hm := make([]uint64, k)
			PackedRangeHistogram(hh, heap, level, start, end)
			PackedRangeHistogram(hm, mapped, level, start, end)
			for s := range hh {
				if hh[s] != hm[s] {
					t.Fatalf("level %d range %v symbol %d: heap %d, mmap %d", level, r, s, hh[s], hm[s])
				}
			}
			sh, minH, maxH := PackedRangeAggregate(values, heap, level, start, end)
			sm, minM, maxM := PackedRangeAggregate(values, mapped, level, start, end)
			if math.Float64bits(sh) != math.Float64bits(sm) ||
				math.Float64bits(minH) != math.Float64bits(minM) ||
				math.Float64bits(maxH) != math.Float64bits(maxM) {
				t.Fatalf("level %d range %v: aggregate heap (%v,%v,%v) vs mmap (%v,%v,%v)",
					level, r, sh, minH, maxH, sm, minM, maxM)
			}
		}
	}
}
