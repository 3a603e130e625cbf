// Package sax implements SAX (Lin et al., DMKD 2007) and the variable-
// cardinality symbols of iSAX (Shieh & Keogh, KDD 2008) — the prior work
// the paper positions itself against (§2.2). SAX z-normalises each series,
// reduces dimensionality with PAA, and quantises with breakpoints that make
// symbols equiprobable under a standard normal distribution.
//
// The package exists for two reasons: as an ablation baseline, and to
// demonstrate the paper's Fig. 3 argument in code — per-series
// normalisation erases the consumption-level differences that distinguish
// big consumers from small ones, which is exactly the signal the paper's
// per-house quantile tables preserve.
package sax

import (
	"errors"
	"fmt"

	"symmeter/internal/stats"
)

// Breakpoints returns the k-1 SAX breakpoints: the (i/k)-quantiles of the
// standard normal, "taken at pre-defined values from a table such that they
// divide equally the samples" — computed here rather than tabulated.
func Breakpoints(k int) ([]float64, error) {
	if k < 2 {
		return nil, errors.New("sax: alphabet size must be >= 2")
	}
	bps := make([]float64, k-1)
	for i := 1; i < k; i++ {
		bps[i-1] = stats.NormInv(float64(i) / float64(k))
	}
	return bps, nil
}

// ZNormalize returns (x - mean) / std per element. Constant series (std
// below epsilon) normalise to all zeros, the standard SAX convention.
func ZNormalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	m := stats.Mean(xs)
	s := stats.StdDev(xs)
	if s < 1e-12 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / s
	}
	return out
}

// PAA reduces xs to `segments` piecewise aggregate means. When len(xs) is
// not divisible by segments, frame boundaries distribute points as evenly
// as possible (the fractional-frame variant).
func PAA(xs []float64, segments int) ([]float64, error) {
	if segments <= 0 {
		return nil, errors.New("sax: segments must be positive")
	}
	n := len(xs)
	if n == 0 {
		return nil, errors.New("sax: empty input")
	}
	if segments > n {
		return nil, fmt.Errorf("sax: %d segments exceed %d points", segments, n)
	}
	out := make([]float64, segments)
	for s := 0; s < segments; s++ {
		lo := s * n / segments
		hi := (s + 1) * n / segments
		var sum float64
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
		out[s] = sum / float64(hi-lo)
	}
	return out, nil
}

// Word is a SAX word: symbol indices in [0, K) per PAA segment.
type Word struct {
	Symbols []int
	K       int
}

// String renders the word with letters 'a', 'b', ... like the SAX papers.
func (w Word) String() string {
	out := make([]byte, len(w.Symbols))
	for i, s := range w.Symbols {
		if s < 26 {
			out[i] = byte('a' + s)
		} else {
			out[i] = '?'
		}
	}
	return string(out)
}

// Encoder converts series to SAX words with fixed parameters.
type Encoder struct {
	// W is the word length (number of PAA segments).
	W int
	// K is the alphabet size.
	K int

	breakpoints []float64
}

// NewEncoder validates parameters and precomputes breakpoints.
func NewEncoder(w, k int) (*Encoder, error) {
	if w <= 0 {
		return nil, errors.New("sax: word length must be positive")
	}
	bps, err := Breakpoints(k)
	if err != nil {
		return nil, err
	}
	return &Encoder{W: w, K: k, breakpoints: bps}, nil
}

// Encode z-normalises, PAA-reduces and quantises a series.
func (e *Encoder) Encode(xs []float64) (Word, error) {
	paa, err := PAA(ZNormalize(xs), e.W)
	if err != nil {
		return Word{}, err
	}
	return e.quantise(paa), nil
}

func (e *Encoder) quantise(paa []float64) Word {
	symbols := make([]int, len(paa))
	for i, v := range paa {
		symbols[i] = e.symbol(v)
	}
	return Word{Symbols: symbols, K: e.K}
}

// symbol maps a normalised value to its breakpoint bin.
func (e *Encoder) symbol(v float64) int {
	lo, hi := 0, len(e.breakpoints)
	for lo < hi {
		mid := (lo + hi) / 2
		if v > e.breakpoints[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
