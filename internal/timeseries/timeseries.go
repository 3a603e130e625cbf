// Package timeseries implements the time-series model of Definition 1 in
// Wijaya et al. (EDBT 2013): a sequence of (timestamp, value) measurements
// ordered by time, together with the slicing, resampling and gap-handling
// operations the smart-meter pipeline needs.
//
// Timestamps are Unix seconds (int64). Smart-meter data in the paper is
// sampled at 1 Hz, so second resolution is exact, compact, and avoids
// time.Time allocation on hundreds of millions of points.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// SecondsPerDay is the number of seconds in one day, used throughout the
// pipeline for day-based slicing (the paper splits houses "by days").
const SecondsPerDay = 86400

// Point is a single measurement: a timestamp (Unix seconds) and a value
// (power in watts for smart meters).
type Point struct {
	T int64
	V float64
}

// Series is a time series S = {s1, s2, ...} per Definition 1: points ordered
// by non-decreasing timestamp.
type Series struct {
	// Name identifies the series, e.g. "house1" or "house1/fridge".
	Name string
	// Points holds the measurements in timestamp order.
	Points []Point
}

// ErrUnordered reports that points violate the Definition 1 ordering.
var ErrUnordered = errors.New("timeseries: points not in timestamp order")

// New returns a Series over the given points, validating the Definition 1
// ordering requirement (tj <= ti whenever j <= i).
func New(name string, points []Point) (*Series, error) {
	for i := 1; i < len(points); i++ {
		if points[i].T < points[i-1].T {
			return nil, fmt.Errorf("%w: index %d has t=%d after t=%d",
				ErrUnordered, i, points[i].T, points[i-1].T)
		}
	}
	return &Series{Name: name, Points: points}, nil
}

// MustNew is New but panics on invalid input. Intended for tests and
// literals whose ordering is statically evident.
func MustNew(name string, points []Point) *Series {
	s, err := New(name, points)
	if err != nil {
		panic(err)
	}
	return s
}

// FromValues builds a regularly sampled series starting at start with the
// given period (seconds) between consecutive values.
func FromValues(name string, start, period int64, values []float64) *Series {
	pts := make([]Point, len(values))
	for i, v := range values {
		pts[i] = Point{T: start + int64(i)*period, V: v}
	}
	return &Series{Name: name, Points: pts}
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Empty reports whether the series has no points.
func (s *Series) Empty() bool { return len(s.Points) == 0 }

// Start returns the first timestamp. It panics on an empty series.
func (s *Series) Start() int64 { return s.Points[0].T }

// Values returns the measurement values in order. The slice is freshly
// allocated; mutating it does not affect the series.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vs[i] = p.V
	}
	return vs
}

// Resample aggregates the series into fixed windows of `window` seconds,
// aligned to the series start, averaging the values in each window. Windows
// without any data are skipped (gaps propagate). The resulting point carries
// the timestamp of the *end* of its window, matching Definition 2 where
// t̄_i = t_{i·n}.
func (s *Series) Resample(window int64) *Series {
	if window <= 0 || s.Empty() {
		return &Series{Name: s.Name}
	}
	var out []Point
	start := s.Start()
	var sum float64
	var count int
	cur := start
	flush := func(winStart int64) {
		if count > 0 {
			out = append(out, Point{T: winStart + window, V: sum / float64(count)})
		}
		sum, count = 0, 0
	}
	for _, p := range s.Points {
		winStart := start + ((p.T-start)/window)*window
		if winStart != cur {
			flush(cur)
			cur = winStart
		}
		sum += p.V
		count++
	}
	flush(cur)
	return &Series{Name: s.Name + fmt.Sprintf("@%ds", window), Points: out}
}

// Sum returns the pointwise sum of the given series, matched by timestamp.
// Timestamps present in only some of the inputs contribute the values that
// exist (missing channels are treated as 0), mirroring how the paper sums
// the two REDD mains into total house consumption even around gaps.
func Sum(name string, series ...*Series) *Series {
	type cursor struct {
		pts []Point
		i   int
	}
	cs := make([]cursor, 0, len(series))
	for _, s := range series {
		if s != nil && !s.Empty() {
			cs = append(cs, cursor{pts: s.Points})
		}
	}
	var out []Point
	for {
		// Find the minimum current timestamp across cursors.
		t := int64(math.MaxInt64)
		alive := false
		for _, c := range cs {
			if c.i < len(c.pts) && c.pts[c.i].T < t {
				t = c.pts[c.i].T
				alive = true
			}
		}
		if !alive {
			break
		}
		var v float64
		for j := range cs {
			for cs[j].i < len(cs[j].pts) && cs[j].pts[cs[j].i].T == t {
				v += cs[j].pts[cs[j].i].V
				cs[j].i++
			}
		}
		out = append(out, Point{T: t, V: v})
	}
	return &Series{Name: name, Points: out}
}

// Stats summarises a series for quick inspection.
type Stats struct {
	Count    int
	Min, Max float64
	Mean     float64
}

// Summary computes basic statistics over the values.
func (s *Series) Summary() Stats {
	st := Stats{Count: len(s.Points)}
	if st.Count == 0 {
		return st
	}
	st.Min, st.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, p := range s.Points {
		if p.V < st.Min {
			st.Min = p.V
		}
		if p.V > st.Max {
			st.Max = p.V
		}
		sum += p.V
	}
	st.Mean = sum / float64(st.Count)
	return st
}
