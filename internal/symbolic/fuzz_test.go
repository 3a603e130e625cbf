package symbolic_test

import (
	"bytes"
	"math/rand"
	"testing"

	"symmeter/internal/symbolic"
)

// FuzzPackUnpack round-trips random fixed-level symbol sequences at every
// level 1..MaxLevel through Pack/Unpack and the buffer-reusing
// AppendPack/UnpackInto forms, cross-checking the packed bytes against the
// bit-at-a-time oracle refPack (bitwise_ref_test.go). Counts near
// multiples of 8/level exercise the kernel's 32-bit flush boundaries and
// tail-byte handling.
func FuzzPackUnpack(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(96))
	f.Add(int64(2), uint8(1), uint16(1))
	f.Add(int64(3), uint8(3), uint16(11))   // level not dividing 8: straddles bytes
	f.Add(int64(4), uint8(30), uint16(7))   // MaxLevel: two refills per flush
	f.Add(int64(5), uint8(7), uint16(9))    // odd level, tail bits
	f.Add(int64(6), uint8(8), uint16(32))   // byte-aligned, word-aligned
	f.Add(int64(7), uint8(5), uint16(0))    // empty
	f.Add(int64(8), uint8(13), uint16(513)) // long run, odd level
	f.Fuzz(func(t *testing.T, seed int64, lvl uint8, n uint16) {
		level := int(lvl)%symbolic.MaxLevel + 1
		count := int(n) % 4096
		rng := rand.New(rand.NewSource(seed))
		syms := make([]symbolic.Symbol, count)
		for i := range syms {
			syms[i] = symbolic.NewSymbol(rng.Intn(1<<uint(level)), level)
		}

		data, err := symbolic.Pack(syms)
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		ref, err := refPack(syms)
		if err != nil {
			t.Fatalf("refPack: %v", err)
		}
		if !bytes.Equal(data, ref) {
			t.Fatalf("level %d count %d: packed bytes diverge from bit-at-a-time oracle:\nword %x\nref  %x", level, count, data, ref)
		}

		got, err := symbolic.Unpack(data)
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		if len(got) != count {
			t.Fatalf("Unpack returned %d symbols, want %d", len(got), count)
		}
		for i := range got {
			if got[i] != syms[i] {
				t.Fatalf("round trip diverges at %d: %v != %v", i, got[i], syms[i])
			}
		}

		// Buffer-reusing forms: AppendPack onto a dirty prefix must leave the
		// prefix intact and append exactly the Pack bytes; UnpackInto into a
		// dirty undersized buffer must still decode correctly.
		prefix := []byte{0xAA, 0x55, 0xFF}
		appended, err := symbolic.AppendPack(append([]byte(nil), prefix...), syms)
		if err != nil {
			t.Fatalf("AppendPack: %v", err)
		}
		if !bytes.Equal(appended[:3], prefix) || !bytes.Equal(appended[3:], data) {
			t.Fatalf("AppendPack output diverges from Pack")
		}
		dirty := make([]symbolic.Symbol, 5, 8)
		for i := range dirty {
			dirty[i] = symbolic.NewSymbol(1, 1)
		}
		got2, err := symbolic.UnpackInto(dirty, data)
		if err != nil {
			t.Fatalf("UnpackInto: %v", err)
		}
		if len(got2) != count {
			t.Fatalf("UnpackInto returned %d symbols, want %d", len(got2), count)
		}
		for i := range got2 {
			if got2[i] != syms[i] {
				t.Fatalf("UnpackInto diverges at %d", i)
			}
		}
	})
}

// TestAppendPackUnpackIntoZeroAlloc enforces the codec's zero-allocation
// contract: once scratch buffers have grown to the working size, the
// steady-state pack→unpack cycle must not allocate at all.
func TestAppendPackUnpackIntoZeroAlloc(t *testing.T) {
	syms := make([]symbolic.Symbol, 96)
	for i := range syms {
		syms[i] = symbolic.NewSymbol(i%16, 4)
	}
	var (
		buf []byte
		out []symbolic.Symbol
		err error
	)
	allocs := testing.AllocsPerRun(200, func() {
		buf, err = symbolic.AppendPack(buf[:0], syms)
		if err != nil {
			t.Fatal(err)
		}
		out, err = symbolic.UnpackInto(out, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(syms) {
			t.Fatal("length mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendPack+UnpackInto allocates %.1f times per run, want 0", allocs)
	}
}
