package symbolic_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"symmeter/internal/symbolic"
)

// The bit-at-a-time symbol codec that the word-at-a-time kernel replaced,
// kept as a differential-testing oracle: the two implementations must
// produce byte-identical output for every input. It intentionally mirrors
// the original implementation — one shift-and-test per bit — and must not
// be "optimised".

const refMagic = 'S'

const refMaxPackCount = 1<<24 - 1

// refPack is the original bit-at-a-time packer.
func refPack(symbols []symbolic.Symbol) ([]byte, error) {
	if len(symbols) > refMaxPackCount {
		return nil, fmt.Errorf("refPack: cannot pack %d symbols (max %d)", len(symbols), refMaxPackCount)
	}
	level := 0
	if len(symbols) > 0 {
		level = symbols[0].Level()
	}
	if level == 0 && len(symbols) > 0 {
		return nil, errors.New("refPack: cannot pack level-0 symbols")
	}
	for i, s := range symbols {
		if s.Level() != level {
			return nil, fmt.Errorf("refPack: mixed levels: symbol %d has level %d, want %d", i, s.Level(), level)
		}
	}
	payloadBits := len(symbols) * level
	out := make([]byte, 5+(payloadBits+7)/8)
	out[0] = refMagic
	out[1] = byte(level)
	out[2] = byte(len(symbols) >> 16)
	out[3] = byte(len(symbols) >> 8)
	out[4] = byte(len(symbols))
	bitPos := 0
	payload := out[5:]
	for _, s := range symbols {
		idx := uint32(s.Index())
		for b := level - 1; b >= 0; b-- {
			if idx>>uint(b)&1 == 1 {
				payload[bitPos/8] |= 1 << uint(7-bitPos%8)
			}
			bitPos++
		}
	}
	return out, nil
}

// refUnpack is the original bit-at-a-time unpacker.
func refUnpack(data []byte) ([]symbolic.Symbol, error) {
	if len(data) < 5 {
		return nil, errors.New("refUnpack: packed data too short")
	}
	if data[0] != refMagic {
		return nil, fmt.Errorf("refUnpack: bad magic byte %#x", data[0])
	}
	level := int(data[1])
	count := int(data[2])<<16 | int(data[3])<<8 | int(data[4])
	if count == 0 {
		return []symbolic.Symbol{}, nil
	}
	if level < 1 || level > symbolic.MaxLevel {
		return nil, fmt.Errorf("refUnpack: bad level %d", level)
	}
	need := 5 + (count*level+7)/8
	if len(data) < need {
		return nil, fmt.Errorf("refUnpack: truncated payload: have %d bytes, need %d", len(data), need)
	}
	payload := data[5:]
	out := make([]symbolic.Symbol, count)
	bitPos := 0
	for i := 0; i < count; i++ {
		idx := 0
		for b := 0; b < level; b++ {
			idx <<= 1
			if payload[bitPos/8]>>uint(7-bitPos%8)&1 == 1 {
				idx |= 1
			}
			bitPos++
		}
		out[i] = symbolic.NewSymbol(idx, level)
	}
	return out, nil
}

// TestDifferential checks the word-at-a-time kernel against the
// bit-at-a-time original: byte-identical packed output and identical
// round-trips for random sequences at every level.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for level := 1; level <= symbolic.MaxLevel; level++ {
		for _, count := range []int{0, 1, 2, 7, 8, 9, 95, 96, 97, 1000} {
			syms := make([]symbolic.Symbol, count)
			for i := range syms {
				syms[i] = symbolic.NewSymbol(rng.Intn(1<<uint(level)), level)
			}
			want, err := refPack(syms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := symbolic.Pack(syms)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("level %d count %d: packed bytes diverge:\nword    %x\nbitwise %x", level, count, got, want)
			}
			back, err := symbolic.Unpack(want)
			if err != nil {
				t.Fatal(err)
			}
			refBack, err := refUnpack(got)
			if err != nil {
				t.Fatal(err)
			}
			for i := range syms {
				if back[i] != syms[i] || refBack[i] != syms[i] {
					t.Fatalf("level %d count %d: round trip diverges at %d", level, count, i)
				}
			}
		}
	}
}
