package symbolic

import (
	"encoding/binary"
	"math/bits"
)

// Compressed-domain aggregation kernels.
//
// These operate on *headerless* packed payloads — the bit layout AppendPack
// produces after its 5-byte header: symbols at a fixed level, MSB-first,
// position p occupying bits [p·level, (p+1)·level). The block store keeps
// symbols in this form at rest, and the query engine answers aggregates by
// running these kernels over the edge blocks of a time range, so a query
// never materializes a float64 (or even a Symbol) slice.
//
// For the byte-aligned levels (1, 2 and 4 — the paper's k=2/4/16 tables) the
// kernels work a 64-bit word at a time with per-byte lookup tables: one
// uint64 load yields 8 payload bytes = 16 level-4 symbols, histogrammed or
// summed without ever unpacking a symbol. Other levels fall back to the
// shift-accumulator walk the codec uses, which still touches only integers.

// PackSymbolAt writes the symbol index into position pos of a headerless
// packed payload. The target bits must still be zero (the block store's
// payloads are append-only, so every position is written exactly once).
func PackSymbolAt(payload []byte, level, pos int, index uint32) {
	bit := pos * level
	rem := level
	for rem > 0 {
		byteIdx, bitIdx := bit>>3, bit&7
		take := 8 - bitIdx
		if take > rem {
			take = rem
		}
		chunk := index >> uint(rem-take) & (1<<uint(take) - 1)
		payload[byteIdx] |= byte(chunk << uint(8-bitIdx-take))
		bit += take
		rem -= take
	}
}

// PackedSymbolAt reads the symbol index at position pos of a headerless
// packed payload.
func PackedSymbolAt(payload []byte, level, pos int) uint32 {
	bit := pos * level
	var idx uint32
	rem := level
	for rem > 0 {
		byteIdx, bitIdx := bit>>3, bit&7
		take := 8 - bitIdx
		if take > rem {
			take = rem
		}
		chunk := uint32(payload[byteIdx]) >> uint(8-bitIdx-take) & (1<<uint(take) - 1)
		idx = idx<<uint(take) | chunk
		bit += take
		rem -= take
	}
	return idx
}

// AppendUnpackRange appends the symbols at positions [start, end) of a
// headerless packed payload to dst — the reconstruction path snapshots use
// to rebuild points outside the shard lock.
func AppendUnpackRange(dst []Symbol, payload []byte, level, start, end int) []Symbol {
	lvl := uint8(level)
	walkPacked(payload, level, start, end, func(idx uint32) {
		dst = append(dst, Symbol{index: idx, level: lvl})
	})
	return dst
}

// walkPacked invokes fn with each symbol index at positions [start, end),
// using the codec's 32-bit-refill accumulator. It is the general path behind
// the kernels for levels without a byte-aligned fast path.
func walkPacked(payload []byte, level, start, end int, fn func(idx uint32)) {
	if start >= end {
		return
	}
	bit := start * level
	pos := bit >> 3
	// Seed the accumulator with the tail of the first byte so the loop below
	// always starts symbol-aligned.
	accBits := 8 - bit&7
	acc := uint64(payload[pos]) & (1<<uint(accBits) - 1)
	pos++
	mask := uint64(1)<<uint(level) - 1
	for i := start; i < end; i++ {
		for accBits < level {
			if pos+4 <= len(payload) {
				acc = acc<<32 | uint64(binary.BigEndian.Uint32(payload[pos:]))
				accBits += 32
				pos += 4
			} else {
				acc = acc<<8 | uint64(payload[pos])
				accBits += 8
				pos++
			}
		}
		accBits -= level
		fn(uint32(acc >> uint(accBits) & mask))
	}
}

// laneLUT2 maps a payload byte to the counts of its four level-2 symbols,
// packed one count per byte lane (lane s = symbol s). Summing lanes across
// up to 63 bytes cannot overflow a lane (4·63 < 256), so the level-2
// histogram kernel does one table add per byte and flushes lanes in chunks.
var laneLUT2 [256]uint32

func init() {
	for b := 0; b < 256; b++ {
		var v uint32
		for j := 0; j < 4; j++ {
			sym := b >> uint(6-2*j) & 3
			v += 1 << uint(8*sym)
		}
		laneLUT2[b] = v
	}
}

// PackedRangeHistogram adds the symbol counts of positions [start, end) of a
// headerless packed payload into hist, which must have at least 1<<level
// entries. Levels 1, 2, 4 and 8 use word-at-a-time byte kernels; other
// levels use the accumulator walk.
func PackedRangeHistogram(hist []uint64, payload []byte, level, start, end int) {
	if start >= end {
		return
	}
	switch level {
	case 1:
		n := end - start
		ones := 0
		// Leading partial byte, bit by bit.
		if lead := start & 7; lead != 0 {
			stop := start + (8 - lead)
			if stop > end {
				stop = end
			}
			for p := start; p < stop; p++ {
				ones += int(payload[p>>3] >> uint(7-p&7) & 1)
			}
			start = stop
		}
		// Trailing partial byte, masked popcount.
		if tail := end & 7; start < end && tail != 0 {
			ones += bits.OnesCount8(payload[end>>3] & (0xFF << uint(8-tail)))
			end -= tail
		}
		bs := payload[start>>3 : end>>3]
		for len(bs) >= 8 {
			ones += bits.OnesCount64(binary.BigEndian.Uint64(bs))
			bs = bs[8:]
		}
		for _, b := range bs {
			ones += bits.OnesCount8(b)
		}
		hist[1] += uint64(ones)
		hist[0] += uint64(n - ones)
	case 2:
		// Leading edge to a byte boundary.
		for ; start < end && start&3 != 0; start++ {
			hist[payload[start>>2]>>uint(6-2*(start&3))&3]++
		}
		// Trailing edge from the last byte boundary.
		for ; end > start && end&3 != 0; end-- {
			p := end - 1
			hist[payload[p>>2]>>uint(6-2*(p&3))&3]++
		}
		bs := payload[start>>2 : end>>2]
		for len(bs) > 0 {
			chunk := bs
			if len(chunk) > 63 {
				chunk = chunk[:63]
			}
			var acc uint32
			for _, b := range chunk {
				acc += laneLUT2[b]
			}
			hist[0] += uint64(acc & 0xFF)
			hist[1] += uint64(acc >> 8 & 0xFF)
			hist[2] += uint64(acc >> 16 & 0xFF)
			hist[3] += uint64(acc >> 24 & 0xFF)
			bs = bs[len(chunk):]
		}
	case 4:
		if start&1 != 0 {
			hist[payload[start>>1]&0xF]++
			start++
		}
		if end > start && end&1 != 0 {
			hist[payload[(end-1)>>1]>>4]++
			end--
		}
		bs := payload[start>>1 : end>>1]
		if useHistL4 && len(bs) >= histL4Stride {
			n := len(bs) &^ (histL4Stride - 1)
			histL4Native(bs[:n], &hist[0])
			bs = bs[n:]
		}
		for len(bs) >= 8 {
			w := binary.BigEndian.Uint64(bs)
			hist[w>>60]++
			hist[w>>56&0xF]++
			hist[w>>52&0xF]++
			hist[w>>48&0xF]++
			hist[w>>44&0xF]++
			hist[w>>40&0xF]++
			hist[w>>36&0xF]++
			hist[w>>32&0xF]++
			hist[w>>28&0xF]++
			hist[w>>24&0xF]++
			hist[w>>20&0xF]++
			hist[w>>16&0xF]++
			hist[w>>12&0xF]++
			hist[w>>8&0xF]++
			hist[w>>4&0xF]++
			hist[w&0xF]++
			bs = bs[8:]
		}
		for _, b := range bs {
			hist[b>>4]++
			hist[b&0xF]++
		}
	case 8:
		for _, b := range payload[start:end] {
			hist[b]++
		}
	default:
		walkPacked(payload, level, start, end, func(idx uint32) { hist[idx]++ })
	}
}

// PackedRangeAggregate folds positions [start, end) of a headerless packed
// payload into (sum, min, max) over values[idx] without materializing any
// intermediate slice. Extremes are tracked in the value domain, so no
// monotonicity of values is assumed. It works at every level — the query
// engine uses it for blocks too fine-grained to carry a histogram
// (level > 8). start must be < end; values must have 1<<level entries.
func PackedRangeAggregate(values []float64, payload []byte, level, start, end int) (sum, minV, maxV float64) {
	first := values[PackedSymbolAt(payload, level, start)]
	return PackedRangeFold(values, nil, payload, level, start, end, 0, first, first)
}

// PackedRangeSumLUT sums values over positions [start, end) of a headerless
// packed payload using a per-byte partial-sum table (Table.ByteSums): one
// table lookup covers a whole byte — 8, 4 or 2 symbols at levels 1, 2 and 4
// — so a 64-bit word's worth of payload costs 8 float adds regardless of
// level. Unaligned edge symbols are resolved through values. Only valid for
// levels 1, 2 and 4.
func PackedRangeSumLUT(byteSums, values []float64, payload []byte, level, start, end int) float64 {
	spb := 8 / level // symbols per byte
	var sum float64
	for ; start < end && start%spb != 0; start++ {
		sum += values[PackedSymbolAt(payload, level, start)]
	}
	for ; end > start && end%spb != 0; end-- {
		sum += values[PackedSymbolAt(payload, level, end-1)]
	}
	for _, b := range payload[start/spb : end/spb] {
		sum += byteSums[b]
	}
	return sum
}
