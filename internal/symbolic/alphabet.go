// Package symbolic implements the paper's core contribution: converting
// smart-meter time series into sequences of variable-length binary symbols
// via vertical segmentation (temporal averaging, Definition 2) and
// horizontal segmentation (value quantization through a learned lookup
// table, Definition 3), with online conversion, reconstruction, resolution
// conversion, and bit-level compression.
package symbolic

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Symbol is one variable-length binary symbol, e.g. '0', '101' or '00101'
// (paper §2). A symbol at level L (length L bits) names one of 2^L subranges
// produced by recursively halving the value range L times (paper Fig. 1).
//
// The alphabet has a partial order: '0' covers '00' and '01' — a shorter
// symbol is a coarser version of any symbol it prefixes. The zero value is
// the empty symbol (level 0), which covers everything.
type Symbol struct {
	// index is the bin number within the symbol's level, in [0, 2^level).
	index uint32
	// level is the number of bits.
	level uint8
}

// MaxLevel bounds the symbol length; 30 bits ≈ one-billion-bin resolution is
// far beyond any practical lookup table.
const MaxLevel = 30

// NewSymbol returns the symbol for bin `index` at the given level.
// It panics if index or level are out of range (programmer error: indices
// come from lookup-table encoding which is range-checked).
func NewSymbol(index, level int) Symbol {
	if level < 0 || level > MaxLevel {
		panic(fmt.Sprintf("symbolic: level %d out of range [0,%d]", level, MaxLevel))
	}
	if index < 0 || index >= 1<<uint(level) {
		panic(fmt.Sprintf("symbolic: index %d out of range for level %d", index, level))
	}
	return Symbol{index: uint32(index), level: uint8(level)}
}

// Index returns the bin number within the symbol's level.
func (s Symbol) Index() int { return int(s.index) }

// Level returns the number of bits (the resolution).
func (s Symbol) Level() int { return int(s.level) }

// String renders the symbol as its binary string, e.g. "011". The empty
// symbol renders as "ε".
func (s Symbol) String() string {
	if s.level == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := int(s.level) - 1; i >= 0; i-- {
		if s.index>>uint(i)&1 == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Coarsen returns the symbol truncated to the given lower level — the
// paper's "higher resolution symbols can easily be converted to lower
// resolution". Coarsening keeps the leading bits: '101' coarsened to level 1
// is '1'.
func (s Symbol) Coarsen(toLevel int) (Symbol, error) {
	if toLevel < 0 || toLevel > int(s.level) {
		return Symbol{}, fmt.Errorf("symbolic: cannot coarsen level-%d symbol to level %d", s.level, toLevel)
	}
	return Symbol{index: s.index >> uint(int(s.level)-toLevel), level: uint8(toLevel)}, nil
}

// Covers reports whether s is an equal-or-coarser version of t, i.e. whether
// the binary string of s is a prefix of t's — the paper's partial order
// where '0' equals '01', '00' and so on.
func (s Symbol) Covers(t Symbol) bool {
	if s.level > t.level {
		return false
	}
	return t.index>>uint(int(t.level)-int(s.level)) == s.index
}

// Refinements returns the two immediate refinements of s (one level deeper):
// appending '0' and '1'.
func (s Symbol) Refinements() (lo, hi Symbol) {
	if int(s.level) >= MaxLevel {
		panic("symbolic: cannot refine past MaxLevel")
	}
	return Symbol{index: s.index << 1, level: s.level + 1},
		Symbol{index: s.index<<1 | 1, level: s.level + 1}
}

// Alphabet describes the symbol set A of a lookup table: all 2^Level symbols
// at a fixed level. The paper stores symbols as binary numbers and uses only
// power-of-two alphabet sizes.
type Alphabet struct {
	level int
}

// ErrNotPowerOfTwo reports an alphabet size that is not a power of two.
var ErrNotPowerOfTwo = errors.New("symbolic: alphabet size must be a power of two >= 2")

// NewAlphabet returns the alphabet of the given size k (a power of two >= 2).
func NewAlphabet(k int) (Alphabet, error) {
	if k < 2 || bits.OnesCount(uint(k)) != 1 {
		return Alphabet{}, fmt.Errorf("%w: got %d", ErrNotPowerOfTwo, k)
	}
	return Alphabet{level: bits.TrailingZeros(uint(k))}, nil
}

// Size returns k = 2^Level.
func (a Alphabet) Size() int { return 1 << uint(a.level) }

// Level returns log2(k), the symbol length in bits.
func (a Alphabet) Level() int { return a.level }

// Symbols enumerates all symbols of the alphabet in value order.
func (a Alphabet) Symbols() []Symbol {
	out := make([]Symbol, a.Size())
	for i := range out {
		out[i] = Symbol{index: uint32(i), level: uint8(a.level)}
	}
	return out
}
