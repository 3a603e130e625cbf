package symbolic

import (
	"fmt"
	"math"
	"sort"
)

// Table is the lookup table L = (A, B) of Definition 3: an alphabet of
// k = 2^Level symbols and k-1 separators β1 ≤ β2 ≤ ... ≤ βk-1.
//
// The table also carries the per-symbol representative values used for
// reconstruction ("the lookup table will match each symbol to the average
// real value of its corresponding range", §2) and the observed [Min, Max]
// of the training data, which defines the outer range centers used for
// forecasting semantics ("the center of its range", §3.2).
type Table struct {
	alphabet   Alphabet
	separators []float64
	// repr[i] is the mean training value in bin i; NaN when the bin saw no
	// training data (Value falls back to the bin center).
	repr []float64
	// values[i] is the resolved reconstruction value for bin i — repr[i]
	// when known, otherwise the bin center. It is rebuilt by refreshValues
	// after every repr mutation so the hot ingest path can resolve
	// symbol→value by direct index with no NaN test, bounds math or error
	// allocation per point.
	values []float64
	// min and max of the training data, closing the outer bins for centers.
	min, max float64
	// method records which learner produced the table (for reporting).
	method Method
}

// NewTable builds a table directly from separators. The separators must be
// non-decreasing and count exactly k-1 for the alphabet size k. min/max
// bound the value range for bin centers. Representative values default to
// bin centers.
func NewTable(k int, separators []float64, min, max float64) (*Table, error) {
	a, err := NewAlphabet(k)
	if err != nil {
		return nil, err
	}
	if len(separators) != k-1 {
		return nil, fmt.Errorf("symbolic: need %d separators for k=%d, got %d", k-1, k, len(separators))
	}
	if !sort.Float64sAreSorted(separators) {
		return nil, fmt.Errorf("symbolic: separators must be non-decreasing")
	}
	if min > max {
		return nil, fmt.Errorf("symbolic: min %v > max %v", min, max)
	}
	t := &Table{
		alphabet:   a,
		separators: append([]float64(nil), separators...),
		repr:       make([]float64, k),
		min:        min,
		max:        max,
	}
	for i := range t.repr {
		t.repr[i] = math.NaN()
	}
	t.refreshValues()
	return t, nil
}

// ExpertTable builds a lookup table from explicit separators supplied by a
// domain expert — the paper's alternative to a learned table (§3.2: "an
// expert who is interested on two segmentation: low and high consumption").
// The number of separators must be k-1 for a power-of-two k. min/max close
// the outer ranges for reconstruction centers.
func ExpertTable(separators []float64, min, max float64) (*Table, error) {
	return NewTable(len(separators)+1, separators, min, max)
}

// refreshValues rebuilds the resolved reconstruction cache. Every code path
// that mutates t.repr must call it before the table is used for decoding.
func (t *Table) refreshValues() {
	if t.values == nil {
		t.values = make([]float64, len(t.repr))
	}
	level := uint8(t.alphabet.Level())
	for i := range t.values {
		if r := t.repr[i]; !math.IsNaN(r) {
			t.values[i] = r
			continue
		}
		lo, hi, _ := t.Bounds(Symbol{index: uint32(i), level: level})
		t.values[i] = (lo + hi) / 2
	}
}

// ReconstructionValues returns the per-bin reconstruction values indexed by
// symbol index: repr means where training data was seen, bin centers
// otherwise. The returned slice is owned by the table and must not be
// modified; it stays valid until the next SetRepresentatives call. Batch
// decoders use it to resolve symbol→value by direct index on the hot path.
func (t *Table) ReconstructionValues() []float64 { return t.values }

// K returns the alphabet size.
func (t *Table) K() int { return t.alphabet.Size() }

// Level returns the symbol length in bits.
func (t *Table) Level() int { return t.alphabet.Level() }

// Method returns the learner that produced this table (MethodNone for
// hand-built tables).
func (t *Table) Method() Method { return t.method }

// Encode maps a value to its symbol per Definition 3:
//
//	(i)  v <= β1          → a1
//	(ii) v > βk-1         → ak
//	(iii) βj-1 < v <= βj  → aj
func (t *Table) Encode(v float64) Symbol {
	return Symbol{index: uint32(t.bin(v)), level: uint8(t.alphabet.Level())}
}

// bin returns the index of the first separator >= v, or k-1 when there is
// none: the bin Definition 3's left-open, right-closed ranges put v in. It is
// the binary search sort.Search would run, with no data-dependent branch:
// k is a power of two, so log2(k) halvings over the k-1 separators (a
// virtual +Inf closes the last) land on the answer. NaN separators sort
// first (NewTable's order) and compare false, like separators below v, so
// the predicate stays monotone; a NaN value lands in the last bin.
func (t *Table) bin(v float64) int {
	seps := t.separators
	i := 0
	for half := (len(seps) + 1) >> 1; half > 0; half >>= 1 {
		right := 0
		if !(seps[i+half-1] >= v) {
			right = 1
		}
		i += half & -right
	}
	return i
}

// Bounds returns the half-open value interval (lo, hi] covered by the given
// symbol at this table's level. The outer bins extend to the training min
// and max.
func (t *Table) Bounds(s Symbol) (lo, hi float64, err error) {
	if s.Level() != t.Level() {
		return 0, 0, fmt.Errorf("symbolic: symbol level %d does not match table level %d", s.Level(), t.Level())
	}
	i := s.Index()
	if i == 0 {
		lo = t.min
	} else {
		lo = t.separators[i-1]
	}
	if i == t.K()-1 {
		hi = t.max
	} else {
		hi = t.separators[i]
	}
	return lo, hi, nil
}

// Center returns the center of the symbol's range — the forecasting
// semantics of §3.2.
func (t *Table) Center(s Symbol) (float64, error) {
	lo, hi, err := t.Bounds(s)
	if err != nil {
		return 0, err
	}
	return (lo + hi) / 2, nil
}

// Value returns the reconstruction value for a symbol: the mean training
// value of its bin when known, otherwise the bin center.
func (t *Table) Value(s Symbol) (float64, error) {
	if s.Level() != t.Level() {
		return 0, fmt.Errorf("symbolic: symbol level %d does not match table level %d", s.Level(), t.Level())
	}
	return t.values[s.Index()], nil
}

// SetRepresentatives installs per-bin reconstruction values (one per
// symbol). No production path calls it: learners write bin means directly
// and a wire table carries its own. It is the fixture for tables whose
// values are not monotone in the symbol index, which server's
// TestAppendRunEqualsPerPoint and query's TestNonMonotoneRepresentatives
// need.
func (t *Table) SetRepresentatives(repr []float64) error {
	if len(repr) != t.K() {
		return fmt.Errorf("symbolic: need %d representatives, got %d", t.K(), len(repr))
	}
	copy(t.repr, repr)
	t.refreshValues()
	return nil
}

// Coarsen derives the table for a smaller alphabet size k2 (a power of two
// dividing k) by keeping every (k/k2)-th separator. A value encoded with the
// original table and then symbol-coarsened equals the value encoded directly
// with the coarsened table — the paper's resolution-conversion property
// (§4); property-tested in coarsen_test.go.
func (t *Table) Coarsen(k2 int) (*Table, error) {
	if _, err := NewAlphabet(k2); err != nil {
		return nil, err
	}
	k := t.K()
	if k2 > k || k%k2 != 0 {
		return nil, fmt.Errorf("symbolic: cannot coarsen k=%d table to k=%d", k, k2)
	}
	step := k / k2
	seps := make([]float64, 0, k2-1)
	for i := step - 1; i < len(t.separators); i += step {
		seps = append(seps, t.separators[i])
	}
	out, err := NewTable(k2, seps, t.min, t.max)
	if err != nil {
		return nil, err
	}
	out.method = t.method
	// Coarse representatives: average the fine-bin representatives that are
	// known, weighting equally (training counts are not retained).
	for i := 0; i < k2; i++ {
		var sum float64
		var n int
		for j := i * step; j < (i+1)*step; j++ {
			if !math.IsNaN(t.repr[j]) {
				sum += t.repr[j]
				n++
			}
		}
		if n > 0 {
			out.repr[i] = sum / float64(n)
		}
	}
	out.refreshValues()
	return out, nil
}

// String summarises the table.
func (t *Table) String() string {
	return fmt.Sprintf("Table{k=%d, method=%s, range=[%.4g,%.4g], separators=%v}",
		t.K(), t.method, t.min, t.max, t.separators)
}
