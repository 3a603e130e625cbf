package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Min, Min + BinWidth*len(Counts)).
// It reproduces the Fig. 2 artifact: the distribution of power levels.
type Histogram struct {
	Min      float64
	BinWidth float64
	Counts   []int64
	// Under and Over count values falling outside the bin range.
	Under, Over int64
}

// NewHistogram creates a histogram with n bins of the given width starting
// at min. It panics if n <= 0 or width <= 0 (programmer error).
func NewHistogram(min, width float64, n int) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: histogram needs n > 0 and width > 0")
	}
	return &Histogram{Min: min, BinWidth: width, Counts: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	idx := int(math.Floor((x - h.Min) / h.BinWidth))
	switch {
	case idx < 0:
		h.Under++
	case idx >= len(h.Counts):
		h.Over++
	default:
		h.Counts[idx]++
	}
}

// Mode returns the lower edge of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.Min + float64(best)*h.BinWidth
}

// WriteTo renders the histogram as an ASCII bar chart, one row per bin,
// scaled so the largest bar is width 60.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	var max int64 = 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var written int64
	for i, c := range h.Counts {
		bar := strings.Repeat("#", int(float64(c)/float64(max)*60))
		n, err := fmt.Fprintf(w, "%8.0f %10d %s\n", h.Min+float64(i)*h.BinWidth, c, bar)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
