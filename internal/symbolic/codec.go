package symbolic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec packs fixed-level symbol sequences into dense bit strings, realising
// the paper's storage arithmetic (§2.3): k symbols cost log2(k) bits each,
// so a day of 16-symbol/15-minute data is 96 symbols × 4 bits = 384 bits.
//
// Wire format: a 5-byte header (magic 'S', level byte, uint24 count) followed
// by ceil(count·level/8) payload bytes, symbols packed MSB-first.

const codecMagic = 'S'

// maxPackCount bounds a packed sequence (uint24 count field).
const maxPackCount = 1<<24 - 1

// Pack encodes a fixed-level symbol sequence. All symbols must share the
// same level (mixed-resolution streams should be coarsened first or packed
// in separate runs).
func Pack(symbols []Symbol) ([]byte, error) {
	return AppendPack(nil, symbols)
}

// AppendPack appends the packed encoding of symbols to dst and returns the
// extended slice, reallocating only when dst lacks capacity. It is the
// zero-allocation form of Pack for callers that reuse a scratch buffer
// across batches. On error dst is returned truncated to its original
// length with its original contents intact.
//
// The kernel packs word-at-a-time: symbol indices are shifted into a 64-bit
// accumulator and drained 32 bits per store, instead of testing and setting
// one bit per loop iteration.
func AppendPack(dst []byte, symbols []Symbol) ([]byte, error) {
	if len(symbols) > maxPackCount {
		return dst, fmt.Errorf("symbolic: cannot pack %d symbols (max %d)", len(symbols), maxPackCount)
	}
	level := 0
	if len(symbols) > 0 {
		level = symbols[0].Level()
		if level == 0 {
			return dst, errors.New("symbolic: cannot pack level-0 symbols")
		}
	}
	base := len(dst)
	payloadBits := len(symbols) * level
	need := 5 + (payloadBits+7)/8
	if cap(dst)-base < need {
		grown := make([]byte, base+need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+need]
	}
	dst[base] = codecMagic
	dst[base+1] = byte(level)
	dst[base+2] = byte(len(symbols) >> 16)
	dst[base+3] = byte(len(symbols) >> 8)
	dst[base+4] = byte(len(symbols))
	payload := dst[base+5:]
	// Word-at-a-time kernel. Invariant: accBits < 32 at the top of the loop,
	// so acc holds at most 31 + MaxLevel = 61 valid bits and never overflows.
	// Level validation is fused into the loop; on a mismatch only bytes past
	// the caller's original length have been touched, so truncating back to
	// base leaves dst intact.
	lvl := uint8(level)
	shift := uint(level)
	pos := 0
	off := 0
	if level == 4 {
		// Fast path for the paper's headline k=16 configuration: eight
		// 4-bit symbols per 32-bit store, unrolled, one fused level check
		// per word. The <8-symbol remainder falls through to the general
		// accumulator loop below at a byte-aligned position.
		if usePackL4 && len(symbols) >= packL4Stride {
			n := len(symbols) &^ (packL4Stride - 1)
			if packL4Native(symbols[:n:n], payload[:n/2]) {
				off, pos = n, n/2
			}
			// On a level mismatch the asm reports false and the scalar walk
			// below re-runs from 0 to produce the positioned error; the
			// garbage bytes it wrote are past base and truncated away.
		}
		for ; off+8 <= len(symbols); off += 8 {
			s := symbols[off : off+8 : off+8]
			if (s[0].level^4)|(s[1].level^4)|(s[2].level^4)|(s[3].level^4)|
				(s[4].level^4)|(s[5].level^4)|(s[6].level^4)|(s[7].level^4) != 0 {
				for j := range s {
					if s[j].level != 4 {
						return dst[:base], fmt.Errorf("symbolic: mixed levels: symbol %d has level %d, want %d", off+j, s[j].Level(), level)
					}
				}
			}
			w := s[0].index<<28 | s[1].index<<24 | s[2].index<<20 | s[3].index<<16 |
				s[4].index<<12 | s[5].index<<8 | s[6].index<<4 | s[7].index
			binary.BigEndian.PutUint32(payload[pos:], w)
			pos += 4
		}
	}
	var acc uint64
	accBits := 0
	for i := off; i < len(symbols); i++ {
		s := symbols[i]
		if s.level != lvl {
			return dst[:base], fmt.Errorf("symbolic: mixed levels: symbol %d has level %d, want %d", i, s.Level(), level)
		}
		acc = acc<<shift | uint64(s.index)
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
		// Tail byte: remaining bits MSB-aligned, zero padding on the right.
		payload[pos] = byte(acc << uint(8-accBits))
	}
	return dst, nil
}

// Unpack decodes a packed symbol sequence.
func Unpack(data []byte) ([]Symbol, error) {
	return UnpackInto(nil, data)
}

// UnpackInto decodes a packed symbol sequence into dst's backing array
// (overwriting from index 0) and returns the decoded slice, reallocating
// only when dst lacks capacity. It is the zero-allocation form of Unpack
// for callers that reuse a symbol buffer across batches. On error dst is
// returned with its original contents intact.
func UnpackInto(dst []Symbol, data []byte) ([]Symbol, error) {
	if len(data) < 5 {
		return dst, errors.New("symbolic: packed data too short")
	}
	if data[0] != codecMagic {
		return dst, fmt.Errorf("symbolic: bad magic byte %#x", data[0])
	}
	level := int(data[1])
	count := int(data[2])<<16 | int(data[3])<<8 | int(data[4])
	if count == 0 {
		return dst[:0], nil
	}
	if level < 1 || level > MaxLevel {
		return dst, fmt.Errorf("symbolic: bad level %d", level)
	}
	need := 5 + (count*level+7)/8
	if len(data) < need {
		return dst, fmt.Errorf("symbolic: truncated payload: have %d bytes, need %d", len(data), need)
	}
	payload := data[5:]
	if cap(dst) < count {
		dst = make([]Symbol, count)
	} else {
		dst = dst[:count]
	}
	// Word-at-a-time kernel, mirror of AppendPack: refill the accumulator
	// 32 bits at a time (one byte at a time only near the payload tail) and
	// mask each symbol out. accBits < level <= MaxLevel < 32 before a refill,
	// so acc holds at most 61 valid bits; high stale bits are masked off.
	mask := uint64(1)<<uint(level) - 1
	lvl := uint8(level)
	pos := 0
	off := 0
	if level == 4 {
		// Fast path mirroring AppendPack's: one 32-bit load yields eight
		// 4-bit symbols; the remainder continues in the general loop at a
		// byte-aligned position.
		if useUnpackL4 && count >= 2*unpackL4Stride {
			n := count / (2 * unpackL4Stride) * unpackL4Stride // whole payload bytes
			unpackL4Native(payload[:n:n], dst[:2*n])
			off, pos = 2*n, n
		}
		for ; off+8 <= count && pos+4 <= len(payload); off += 8 {
			w := binary.BigEndian.Uint32(payload[pos:])
			pos += 4
			dst[off] = Symbol{index: w >> 28, level: 4}
			dst[off+1] = Symbol{index: w >> 24 & 0xF, level: 4}
			dst[off+2] = Symbol{index: w >> 20 & 0xF, level: 4}
			dst[off+3] = Symbol{index: w >> 16 & 0xF, level: 4}
			dst[off+4] = Symbol{index: w >> 12 & 0xF, level: 4}
			dst[off+5] = Symbol{index: w >> 8 & 0xF, level: 4}
			dst[off+6] = Symbol{index: w >> 4 & 0xF, level: 4}
			dst[off+7] = Symbol{index: w & 0xF, level: 4}
		}
	}
	var acc uint64
	accBits := 0
	for i := off; i < count; i++ {
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
		dst[i] = Symbol{index: uint32(acc >> uint(accBits) & mask), level: lvl}
	}
	return dst, nil
}

// PackedSize returns the packed byte size of n symbols at the given level,
// including the header.
func PackedSize(n, level int) int { return 5 + (n*level+7)/8 }

// RawSize returns the byte size of n raw float64 measurements.
func RawSize(n int) int { return 8 * n }

// CompressionStats reproduces the §2.3 arithmetic for one day of data.
type CompressionStats struct {
	// RawSamples is the number of raw measurements per day.
	RawSamples int
	// RawBytes is RawSamples × 8 (measurements stored as doubles).
	RawBytes int
	// Symbols is the number of symbols per day after vertical segmentation.
	Symbols int
	// SymbolBits is Symbols × log2(k), the §2.3 payload size.
	SymbolBits int
	// PackedBytes includes this codec's framing header.
	PackedBytes int
	// Ratio is RawBytes / (SymbolBits/8): the headline numerosity reduction.
	Ratio float64
}

// Compression computes the compression achieved by encoding data sampled
// every samplePeriod seconds with alphabet size k and vertical window
// `window` seconds, over one day.
func Compression(samplePeriod, window int64, k int) (CompressionStats, error) {
	if samplePeriod <= 0 || window <= 0 {
		return CompressionStats{}, errors.New("symbolic: sample period and window must be positive")
	}
	a, err := NewAlphabet(k)
	if err != nil {
		return CompressionStats{}, err
	}
	var st CompressionStats
	st.RawSamples = int(86400 / samplePeriod)
	st.RawBytes = RawSize(st.RawSamples)
	st.Symbols = int(86400 / window)
	st.SymbolBits = st.Symbols * a.Level()
	st.PackedBytes = PackedSize(st.Symbols, a.Level())
	st.Ratio = float64(st.RawBytes) / (float64(st.SymbolBits) / 8)
	return st, nil
}

// TableWireSize returns the bytes needed to ship a lookup table to the
// aggregation server: a 3-byte header, min/max, k-1 separators and k
// representative values as float64. The paper notes this cost "can be
// amortized over time".
func TableWireSize(k int) int {
	return 3 + (2+(k-1)+k)*8
}

// MarshalTable serialises a table for transmission (header, level, min,
// max, separators, representatives).
func MarshalTable(t *Table) []byte {
	return AppendTable(make([]byte, 0, TableWireSize(t.K())), t)
}

// AppendTable appends MarshalTable's bytes for t to dst: a caller that
// reuses dst serialises without allocating.
func AppendTable(dst []byte, t *Table) []byte {
	dst = append(dst, 'T', byte(t.Level()), byte(t.method))
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, math.Float64bits(t.min))
	dst = le.AppendUint64(dst, math.Float64bits(t.max))
	for _, s := range t.separators {
		dst = le.AppendUint64(dst, math.Float64bits(s))
	}
	for _, r := range t.repr {
		dst = le.AppendUint64(dst, math.Float64bits(r))
	}
	return dst
}

// UnmarshalTable parses a table serialised by MarshalTable.
func UnmarshalTable(data []byte) (*Table, error) {
	if len(data) < 3 || data[0] != 'T' {
		return nil, errors.New("symbolic: bad table frame")
	}
	level := int(data[1])
	method := Method(data[2])
	k := 1 << uint(level)
	need := 3 + (2+k-1+k)*8
	if len(data) != need {
		return nil, fmt.Errorf("symbolic: table frame size %d, want %d", len(data), need)
	}
	le := binary.LittleEndian
	off := 3
	readF := func() float64 {
		v := math.Float64frombits(le.Uint64(data[off : off+8]))
		off += 8
		return v
	}
	min := readF()
	max := readF()
	seps := make([]float64, k-1)
	for i := range seps {
		seps[i] = readF()
	}
	t, err := NewTable(k, seps, min, max)
	if err != nil {
		return nil, err
	}
	t.method = method
	for i := 0; i < k; i++ {
		t.repr[i] = readF()
	}
	t.refreshValues()
	return t, nil
}
