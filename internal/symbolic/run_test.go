package symbolic_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/symbolic"
)

// refCopyPacked is CopyPacked one symbol at a time through the per-symbol
// accessors. PackSymbolAt ORs into the destination, so the reference clears
// the target positions first — plus the tail of the last byte, which
// CopyPacked promises to zero.
func refCopyPacked(dst []byte, dstPos int, src []byte, srcPos, n, level int) {
	if n <= 0 {
		return
	}
	end := (dstPos + n) * level
	for bit := dstPos * level; bit < (end+7)&^7; bit++ {
		dst[bit>>3] &^= 0x80 >> uint(bit&7)
	}
	for i := 0; i < n; i++ {
		symbolic.PackSymbolAt(dst, level, dstPos+i, symbolic.PackedSymbolAt(src, level, srcPos+i))
	}
}

// checkCopyPacked runs CopyPacked and the reference from the same dirty
// destination and requires identical buffers.
func checkCopyPacked(t *testing.T, rng *rand.Rand, level, dstPos, srcPos, n int) {
	t.Helper()
	src := make([]byte, ((srcPos+n)*level+7)/8)
	rng.Read(src)
	got := make([]byte, ((dstPos+n)*level+7)/8+3)
	rng.Read(got)
	want := bytes.Clone(got)
	symbolic.CopyPacked(got, dstPos, src, srcPos, n, level)
	refCopyPacked(want, dstPos, src, srcPos, n, level)
	if !bytes.Equal(got, want) {
		t.Fatalf("level %d dstPos %d srcPos %d n %d:\n got %x\nwant %x", level, dstPos, srcPos, n, got, want)
	}
}

// TestCopyPackedMatrix covers every level, every (destination, source) bit
// residue — positions 0..7 reach all eight residues of pos·level mod 8
// whenever the level allows them — and lengths from nothing to past the
// 64-bit shift-copy's stride.
func TestCopyPackedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for level := 1; level <= symbolic.MaxLevel; level++ {
		for dstPos := 0; dstPos < 8; dstPos++ {
			for srcPos := 0; srcPos < 8; srcPos++ {
				for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 31, 96, 513} {
					checkCopyPacked(t, rng, level, dstPos, srcPos, n)
				}
			}
		}
	}
}

// FuzzCopyPacked checks CopyPacked against the per-symbol accessors for an
// arbitrary level, pair of positions and length.
func FuzzCopyPacked(f *testing.F) {
	f.Add(uint8(4), uint16(0), uint16(0), uint16(96), int64(1))
	f.Add(uint8(4), uint16(481), uint16(1), uint16(31), int64(2))
	f.Add(uint8(1), uint16(7), uint16(3), uint16(700), int64(3))
	f.Add(uint8(30), uint16(5), uint16(2), uint16(64), int64(4))
	f.Add(uint8(13), uint16(511), uint16(95), uint16(1), int64(5))
	f.Fuzz(func(t *testing.T, lvl uint8, dstPos, srcPos, n uint16, seed int64) {
		level := int(lvl)%symbolic.MaxLevel + 1
		checkCopyPacked(t, rand.New(rand.NewSource(seed)), level, int(dstPos)%2048, int(srcPos)%2048, int(n)%2048)
	})
}

// TestAppendPackPoints: the headerless point packer produces exactly
// AppendPack's payload at every level and length, names the first symbol at a
// foreign level, and leaves dst alone when it does.
func TestAppendPackPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for level := 1; level <= symbolic.MaxLevel; level++ {
		for _, n := range []int{0, 1, 7, 8, 9, 16, 95, 96, 97, 515} {
			pts := make([]symbolic.SymbolPoint, n)
			syms := make([]symbolic.Symbol, n)
			for i := range pts {
				syms[i] = symbolic.NewSymbol(rng.Intn(1<<level), level)
				pts[i] = symbolic.SymbolPoint{T: int64(i), S: syms[i]}
			}
			framed, err := symbolic.Pack(syms)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte{0xAA, 0xBB}
			got, bad := symbolic.AppendPackPoints(bytes.Clone(prefix), pts, level)
			if bad != -1 || !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], framed[5:]) {
				t.Fatalf("level %d n %d: bad=%d\n got %x\nwant %x", level, n, bad, got[2:], framed[5:])
			}
			if n == 0 {
				continue
			}
			at := rng.Intn(n)
			pts[at].S = symbolic.NewSymbol(0, level%symbolic.MaxLevel+1)
			got, bad = symbolic.AppendPackPoints(bytes.Clone(prefix), pts, level)
			if bad != at || !bytes.Equal(got, prefix) {
				t.Fatalf("level %d n %d: foreign symbol at %d reported as %d, dst %x", level, n, at, bad, got)
			}
		}
	}
}

// TestPackedRangeFold: the in-order fold equals a point-by-point fold bit for
// bit — seeded mid-stream, with and without a histogram, at byte-aligned and
// general levels, from odd and even positions — and a NaN value never
// displaces an extreme.
func TestPackedRangeFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, level := range []int{1, 2, 3, 4, 5, 8, 9, 12} {
		k := 1 << level
		values := make([]float64, k)
		for i := range values {
			values[i] = rng.NormFloat64() * 1e6
		}
		payload := make([]byte, (600*level+7)/8)
		rng.Read(payload)
		for _, withHist := range []bool{true, false, true} {
			if !withHist {
				values[rng.Intn(k)] = math.NaN() // the passes after this one fold a NaN
			}
			for _, span := range [][2]int{{0, 0}, {0, 1}, {1, 2}, {0, 96}, {1, 96}, {2, 97}, {3, 98}, {95, 600}} {
				var hist, wantHist []uint16
				if withHist {
					hist, wantHist = make([]uint16, k), make([]uint16, k)
				}
				sum, lo, hi := 12.5, -3.0, 4.0
				ws, wlo, whi := sum, lo, hi
				for p := span[0]; p < span[1]; p++ {
					idx := symbolic.PackedSymbolAt(payload, level, p)
					v := values[idx]
					ws += v
					if v < wlo {
						wlo = v
					}
					if v > whi {
						whi = v
					}
					if withHist {
						wantHist[idx]++
					}
				}
				sum, lo, hi = symbolic.PackedRangeFold(values, hist, payload, level, span[0], span[1], sum, lo, hi)
				if math.Float64bits(sum) != math.Float64bits(ws) || math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
					t.Fatalf("level %d span %v hist %v: (%v, %v, %v), want (%v, %v, %v)", level, span, withHist, sum, lo, hi, ws, wlo, whi)
				}
				for i := range hist {
					if hist[i] != wantHist[i] {
						t.Fatalf("level %d span %v: hist[%d] = %d, want %d", level, span, i, hist[i], wantHist[i])
					}
				}
			}
		}
	}
}
