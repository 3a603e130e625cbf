package symbolic_test

import (
	"math/rand"
	"testing"

	"symmeter/internal/symbolic"
)

// kernelFixtureSymbols is the level-4 symbol count of the kernel fixture:
// 128 sealed blocks' worth, 32 KiB of payload — big enough that the SIMD
// tiers run at full stride.
const kernelFixtureSymbols = 128 * 512

// kernelFixture builds a packed payload of kernelFixtureSymbols random
// level-4 symbols, the same symbols as a slice (for the codec kernels),
// block-sized spans with ragged edges (for the batch fold), and a
// reconstruction-value table.
func kernelFixture() (payload []byte, syms []symbolic.Symbol, spans []symbolic.PackedSpan, values []float64) {
	rng := rand.New(rand.NewSource(17))
	n := kernelFixtureSymbols
	payload = make([]byte, n/2)
	syms = make([]symbolic.Symbol, n)
	for i := range syms {
		idx := uint32(rng.Intn(16))
		symbolic.PackSymbolAt(payload, 4, i, idx)
		syms[i] = symbolic.NewSymbol(int(idx), 4)
	}
	for start := 0; start < n; start += 512 {
		end := min(start+512, n)
		// Ragged edges exercise the odd-offset handling the query engine's
		// partially-covered blocks hit.
		spans = append(spans, symbolic.PackedSpan{Payload: payload, Start: start + 1, End: end - 1})
	}
	values = make([]float64, 16)
	for i := range values {
		values[i] = rng.Float64() * 1000
	}
	return payload, syms, spans, values
}

// BenchmarkKernels times the raw packed-symbol kernels on every available
// dispatch path: "scalar" always, plus the native path (AVX2/NEON) when the
// binary and CPU support it, so the SIMD win is read against a same-run
// scalar twin. Correctness is FuzzKernelsSIMDvsScalar's job; these are
// timings only.
func BenchmarkKernels(b *testing.B) {
	payload, syms, spans, values := kernelFixture()
	packed, err := symbolic.Pack(syms)
	if err != nil {
		b.Fatal(err)
	}
	n := kernelFixtureSymbols
	bodies := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"hist", func(b *testing.B) {
			var hist [16]uint64
			for i := 0; i < b.N; i++ {
				clear(hist[:])
				symbolic.PackedRangeHistogram(hist[:], payload, 4, 1, n-1)
			}
		}},
		{"sum", func(b *testing.B) {
			// The batched sum fold the query engine runs per meter: one
			// histogram over all spans, one float aggregate derived from it.
			var hist [16]uint64
			for i := 0; i < b.N; i++ {
				clear(hist[:])
				symbolic.PackedRangeHistogramBatch(hist[:], 4, spans)
				if c, _, _, _ := symbolic.HistogramAggregate(hist[:], values); c == 0 {
					b.Fatal("empty fold")
				}
			}
		}},
		{"unpack", func(b *testing.B) {
			var out []symbolic.Symbol
			var err error
			for i := 0; i < b.N; i++ {
				if out, err = symbolic.UnpackInto(out, packed); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pack", func(b *testing.B) {
			var buf []byte
			var err error
			for i := 0; i < b.N; i++ {
				if buf, err = symbolic.AppendPack(buf[:0], syms); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	prev := symbolic.KernelPath()
	defer func() {
		if err := symbolic.SetKernelPath(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, path := range symbolic.KernelPaths() {
		if err := symbolic.SetKernelPath(path); err != nil {
			b.Fatal(err)
		}
		for _, body := range bodies {
			b.Run(path+"/"+body.name, func(b *testing.B) {
				b.ReportAllocs()
				body.fn(b)
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sym/s")
			})
		}
	}
}
