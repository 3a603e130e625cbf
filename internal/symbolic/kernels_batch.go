package symbolic

// Batch kernel entry points. The query engine gathers the partially covered
// spans of a meter's range — sealed blocks and the live tail alike — and
// makes one kernel call per run of spans sharing a level and table, so
// per-call overhead (bounds checks, dispatch, edge handling) is amortized
// across blocks and the assembly tiers see long contiguous runs.
//
// The float aggregate is deliberately NOT computed span-by-span: the batch
// path folds every span into one integer histogram and derives (count, sum,
// min, max) from it in HistogramAggregate. Since the assembly kernels only
// ever produce integer histograms, every dispatch path feeds bit-identical
// integers into the same Go float fold — cross-path bit-exactness is
// structural, not a rounding coincidence.

// PackedSpan names the half-open symbol range [Start, End) of one headerless
// packed payload.
type PackedSpan struct {
	Payload []byte
	Start   int
	End     int
}

// PackedRangeHistogramBatch adds the symbol counts of every span into hist,
// which must have at least 1<<level entries. All spans must share the same
// level. Empty or inverted spans contribute nothing.
func PackedRangeHistogramBatch(hist []uint64, level int, spans []PackedSpan) {
	for _, sp := range spans {
		PackedRangeHistogram(hist, sp.Payload, level, sp.Start, sp.End)
	}
}

// HistogramAggregate derives (count, sum, min, max) over values from an
// integer histogram: sum is the histogram–value dot product, extremes scan
// the values of occupied bins (no monotonicity of values is assumed). This
// is the one float fold shared by every kernel dispatch path. count is 0 for
// an all-zero histogram, and minV/maxV are then meaningless.
func HistogramAggregate(hist []uint64, values []float64) (count uint64, sum, minV, maxV float64) {
	first := true
	for i, c := range hist {
		if c == 0 {
			continue
		}
		v := values[i]
		count += c
		sum += v * float64(c)
		if first {
			minV, maxV = v, v
			first = false
			continue
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return count, sum, minV, maxV
}
