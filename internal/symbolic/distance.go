package symbolic

import (
	"errors"
	"fmt"
)

// Distance measures over symbol sequences. The paper's customer-segmentation
// scenario ("identifying customers having a similar consumption profile")
// needs a notion of similarity between symbolic day-vectors; these measures
// give the clustering substrate two options with different semantics:
//
//   - Hamming: positional disagreement count — purely nominal;
//   - ValueDistance: L1 over the separators' value gaps — the analogue of
//     SAX's MINDIST, lower-bounding the L1 distance of the underlying
//     (vertically segmented) series.

// ErrLengthMismatch reports sequences of different lengths.
var ErrLengthMismatch = errors.New("symbolic: sequences have different lengths")

// Hamming returns the number of positions where the sequences disagree.
func Hamming(a, b []Symbol) (int, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d, nil
}

// ValueDistance returns the MINDIST-style lower bound on the L1 distance of
// the underlying series: for each position, the gap between the two
// symbols' value ranges under the table (0 when ranges touch or overlap).
// Both sequences must be encoded with the given table.
func ValueDistance(t *Table, a, b []Symbol) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	var sum float64
	for i := range a {
		d, err := t.SymbolGap(a[i], b[i])
		if err != nil {
			return 0, fmt.Errorf("symbolic: position %d: %w", i, err)
		}
		sum += d
	}
	return sum, nil
}

// SymbolGap returns the value gap between two symbols' ranges: zero for
// equal or adjacent bins, otherwise the distance between the facing
// separators — the cell distance of the SAX dist table generalised to
// data-driven separators.
func (t *Table) SymbolGap(a, b Symbol) (float64, error) {
	if a.Level() != t.Level() || b.Level() != t.Level() {
		return 0, fmt.Errorf("symbolic: symbol levels %d/%d do not match table level %d",
			a.Level(), b.Level(), t.Level())
	}
	lo, hi := a.Index(), b.Index()
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo <= 1 {
		return 0, nil
	}
	return t.separators[hi-1] - t.separators[lo], nil
}
