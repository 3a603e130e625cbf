package symbolic

import "sync"

// Kernel dispatch.
//
// The packed-symbol kernels have three tiers: portable scalar Go (always
// compiled, the only tier under the `noasm` build tag), AVX2 assembly on
// amd64, and NEON assembly on arm64. Dispatch is per-operation booleans
// resolved once at init from runtime CPU detection, guarding direct calls to
// per-arch native wrappers (histL4Native and friends) — deliberately NOT
// function-pointer variables: an indirect call is opaque to escape analysis,
// which would force every caller's stack histogram to the heap and break the
// query engine's zero-alloc pins.
//
// Every assembly kernel computes integers only (nibble histograms, symbol
// expansion, symbol packing). Floating-point aggregates are always derived
// from those integers in shared Go code (see HistogramAggregate), which is
// what makes query results bit-exact across all three dispatch paths: the
// integer intermediates are required to be identical, and the float folds
// that consume them are literally the same code.
//
// The tests switch paths through SetKernelPath (export_test.go): the
// differential fuzz runs every input through "scalar" and the native path and
// requires bit-equal results, and BenchmarkKernels times both so the SIMD win
// is read against a same-run scalar twin.

var (
	// useHistL4 etc. gate the native fast paths; all false means scalar.
	// The native wrappers themselves (histL4Native, unpackL4Native,
	// packL4Native) are defined per arch and must only be called when the
	// corresponding boolean is true.
	useHistL4   bool
	useUnpackL4 bool
	usePackL4   bool

	// Minimum granules the assembly bodies process per call, always a power
	// of two; the Go hook sites hand the native wrapper a multiple and
	// finish remainders scalar. histL4Stride is in payload bytes,
	// unpackL4Stride in payload bytes, packL4Stride in symbols.
	histL4Stride   = 1
	unpackL4Stride = 1
	packL4Stride   = 1

	// nativePath names the arch path compiled in and supported by this CPU
	// ("avx2", "neon"); empty when only scalar exists (noasm, other arches,
	// or missing CPU features).
	nativePath string
	// enableNative re-installs the native dispatch state; set alongside
	// nativePath by the arch init, called when a test switches back.
	enableNative func()

	kernelMu   sync.Mutex
	activePath = "scalar"
)

// KernelPath returns the dispatch path the packed-symbol kernels currently
// take: "avx2", "neon" or "scalar".
func KernelPath() string {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	return activePath
}
