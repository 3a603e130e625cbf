package symbolic

import (
	"encoding/binary"
	"slices"
)

// Packed-run primitives: what the block store and the write-ahead log need
// to move a batch of symbols from one headerless packed payload to another
// without expanding it into Symbols — pack a batch once, bit-copy the packed
// bytes wherever they go next, and fold a range into a block summary in
// arrival order.

// AppendPackPoints appends the headerless packing of the points' symbols at
// the given level — MSB-first, zero-padded to a whole byte — to dst, checking
// every symbol's level on the way. bad is the index of the first point whose
// symbol is not at that level, or -1; on a mismatch dst comes back at its
// original length.
func AppendPackPoints(dst []byte, pts []SymbolPoint, level int) (out []byte, bad int) {
	base := len(dst)
	need := (len(pts)*level + 7) / 8
	dst = slices.Grow(dst, need)[:base+need]
	payload := dst[base:]
	pos, off := 0, 0
	if level == 4 {
		// Eight 4-bit symbols per 32-bit store with one fused level check, as
		// in AppendPack; a mismatch drops to the loop below, which names it.
		for ; off+8 <= len(pts); off += 8 {
			p := pts[off : off+8 : off+8]
			if (p[0].S.level^4)|(p[1].S.level^4)|(p[2].S.level^4)|(p[3].S.level^4)|
				(p[4].S.level^4)|(p[5].S.level^4)|(p[6].S.level^4)|(p[7].S.level^4) != 0 {
				break
			}
			binary.BigEndian.PutUint32(payload[pos:], p[0].S.index<<28|p[1].S.index<<24|
				p[2].S.index<<20|p[3].S.index<<16|p[4].S.index<<12|p[5].S.index<<8|
				p[6].S.index<<4|p[7].S.index)
			pos += 4
		}
	}
	// accBits < 32 at the top of the loop, so acc holds at most 31 + MaxLevel
	// valid bits and never overflows.
	var acc uint64
	accBits := 0
	for i := off; i < len(pts); i++ {
		s := pts[i].S
		if int(s.level) != level {
			return dst[:base], i
		}
		acc = acc<<uint(level) | uint64(s.index)
		accBits += level
		if accBits >= 32 {
			accBits -= 32
			binary.BigEndian.PutUint32(payload[pos:], uint32(acc>>uint(accBits)))
			pos += 4
		}
	}
	for accBits >= 8 {
		accBits -= 8
		payload[pos] = byte(acc >> uint(accBits))
		pos++
	}
	if accBits > 0 {
		payload[pos] = byte(acc << uint(8-accBits))
	}
	return dst, -1
}

// CopyPacked copies n symbols from position srcPos of one headerless packed
// payload to position dstPos of another at the same level. Destination bits
// before dstPos are preserved and the unused low bits of the last byte
// written are zeroed, so appending run after run leaves exactly the bytes
// packing the whole sequence at once would. The copy is a memmove when the
// two bit offsets agree modulo 8 (always, at level 4 from even positions)
// and a 64-bit shift-copy otherwise.
func CopyPacked(dst []byte, dstPos int, src []byte, srcPos, n, level int) {
	if n <= 0 {
		return
	}
	nbits := n * level
	db, sb := dstPos*level, srcPos*level
	if o := db & 7; o != 0 {
		// Fill the destination's partial byte first.
		h := min(8-o, nbits)
		dst[db>>3] = dst[db>>3]&(0xFF<<uint(8-o)) | bitsAt(src, sb, h)<<uint(8-o-h)
		db, sb, nbits = db+h, sb+h, nbits-h
	}
	d, s := dst[db>>3:], src[sb>>3:]
	whole := nbits >> 3
	if sh := uint(sb & 7); sh == 0 {
		copy(d, s[:whole])
	} else {
		// Destination byte i is source bits [sh+8i, sh+8i+8): every read of
		// s[i+1] (or s[i+8]) lands on a byte that still holds run bits.
		i := 0
		for ; i+8 <= whole; i += 8 {
			binary.BigEndian.PutUint64(d[i:], binary.BigEndian.Uint64(s[i:])<<sh|uint64(s[i+8])>>(8-sh))
		}
		for ; i < whole; i++ {
			d[i] = s[i]<<sh | s[i+1]>>(8-sh)
		}
	}
	if r := nbits & 7; r != 0 {
		d[whole] = bitsAt(src, sb+8*whole, r) << uint(8-r)
	}
}

// bitsAt returns the n bits (1 ≤ n ≤ 8) starting at bit offset bit of src,
// right-aligned.
func bitsAt(src []byte, bit, n int) byte {
	i, o := bit>>3, uint(bit&7)
	w := uint16(src[i]) << 8
	if int(o)+n > 8 {
		w |= uint16(src[i+1])
	}
	return byte(w << o >> uint(16-n))
}

// PackedRangeFold continues a running (sum, min, max) fold of values[idx]
// over positions [start, end) of a headerless packed payload, one symbol at
// a time in position order — float addition is not associative, so this is
// the only order that reproduces a point-by-point fold bit for bit. When
// hist is non-nil each symbol also bumps hist[idx]; its 16-bit lanes suit
// one store block (at most 512 symbols), and the caller keeps every lane
// under 65 536. The caller seeds minV and maxV with the first value of a
// fresh fold.
func PackedRangeFold(values []float64, hist []uint16, payload []byte, level, start, end int, sum, minV, maxV float64) (float64, float64, float64) {
	if level != 4 || hist == nil {
		walkPacked(payload, level, start, end, func(idx uint32) {
			sum, minV, maxV = fold1(values[idx], sum, minV, maxV)
			if hist != nil {
				hist[idx]++
			}
		})
		return sum, minV, maxV
	}
	// The headline level: two symbols per payload byte, the fold in locals
	// the closure above does not capture (so they stay in registers), the
	// tables resliced to their known length (so no bounds checks). What is
	// left is the chain of dependent float adds.
	s, lo, hi := sum, minV, maxV
	values, hist = values[:16], hist[:16]
	if start < end && start&1 != 0 {
		i := payload[start>>1] & 0xF
		s, lo, hi = fold1(values[i], s, lo, hi)
		hist[i]++
		start++
	}
	for _, b := range payload[start>>1 : end>>1] {
		i0, i1 := b>>4, b&0xF
		s, lo, hi = fold1(values[i0], s, lo, hi)
		s, lo, hi = fold1(values[i1], s, lo, hi)
		hist[i0]++
		hist[i1]++
	}
	if start < end && end&1 != 0 {
		i := payload[end>>1] >> 4
		s, lo, hi = fold1(values[i], s, lo, hi)
		hist[i]++
	}
	return s, lo, hi
}

// fold1 folds one value. The strict comparisons are the ones block summaries
// have always used: a NaN never displaces an extreme (builtin min/max would
// propagate it).
func fold1(v, sum, lo, hi float64) (float64, float64, float64) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return sum + v, lo, hi
}
