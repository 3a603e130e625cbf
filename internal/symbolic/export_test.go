package symbolic

import "fmt"

// Test seams: the kernel-path switch the differential tests and benchmarks
// use, and the one-symbol packer their fixtures build payloads with.

// KernelPaths returns every dispatch path this binary supports on this CPU,
// scalar first. A binary built with the noasm tag, or running on hardware
// without the required features, reports only "scalar".
func KernelPaths() []string {
	if nativePath != "" {
		return []string{"scalar", nativePath}
	}
	return []string{"scalar"}
}

// SetKernelPath forces the kernel dispatch to the named path: "scalar" is
// always accepted; the native path only when the binary and CPU support it
// (see KernelPaths). It must not be called concurrently with running kernels.
func SetKernelPath(path string) error {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	switch {
	case path == "scalar":
		useHistL4, useUnpackL4, usePackL4 = false, false, false
		histL4Stride, unpackL4Stride, packL4Stride = 1, 1, 1
	case path == nativePath && nativePath != "":
		enableNative()
	default:
		return fmt.Errorf("symbolic: kernel path %q not available (have %v)", path, KernelPaths())
	}
	activePath = path
	return nil
}

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
