package main

import (
	"slices"
	"time"
)

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by nearest rank.
// An empty sample has none: callers check len first.
func percentile(sorted []int64, q float64) int64 {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// medianFloat is the median of v, or 0 when v is empty.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(medianFloat(f))
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is how the driver judges spread.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// sample is a set of latencies with the times they completed, so tails can
// be taken per one-second window.
type sample struct {
	ns []int64 // latency of each op
	at []int64 // completion, ns since the phase started
}

func (s *sample) add(at, ns int64) {
	s.ns = append(s.ns, ns)
	s.at = append(s.at, at)
}

func (s *sample) merge(o *sample) {
	s.ns = append(s.ns, o.ns...)
	s.at = append(s.at, o.at...)
}

func (s *sample) n() int { return len(s.ns) }

// p50 is the median latency, or 0 for an empty sample.
func (s *sample) p50() time.Duration {
	if len(s.ns) == 0 {
		return 0
	}
	return time.Duration(percentile(sortedCopy(s.ns), 0.5))
}

func (s *sample) max() time.Duration {
	if len(s.ns) == 0 {
		return 0
	}
	return time.Duration(slices.Max(s.ns))
}

// rateWindow is the window throughput is taken over: a rate is the median of
// the per-window rates, so a stall that hits one window — a GC cycle, a
// neighbour's burst — does not move it.
const rateWindow = 500 * time.Millisecond

// rate is ops per second over a phase that ran for elapsed: the median over
// whole rateWindows of each window's rate, or plain count ÷ time when the
// phase was too short to have four of them.
func (s *sample) rate(elapsed time.Duration) float64 {
	windows := int(elapsed / rateWindow)
	if windows < 4 {
		return float64(len(s.at)) / elapsed.Seconds()
	}
	counts := make([]float64, windows)
	for _, at := range s.at {
		if w := int(at / int64(rateWindow)); w < windows {
			counts[w]++
		}
	}
	return medianFloat(counts) / rateWindow.Seconds()
}

// p99Windowed is the median over one-second windows of each window's p99;
// windows with fewer than 100 ops have no p99 and are skipped.
func (s *sample) p99Windowed() (time.Duration, int) {
	byWindow := map[int64][]int64{}
	for i, at := range s.at {
		w := at / int64(time.Second)
		byWindow[w] = append(byWindow[w], s.ns[i])
	}
	var p99s []float64
	for _, ns := range byWindow {
		if len(ns) >= 100 {
			slices.Sort(ns)
			p99s = append(p99s, float64(percentile(ns, 0.99)))
		}
	}
	if len(p99s) == 0 {
		return 0, 0
	}
	return time.Duration(medianFloat(p99s)), len(p99s)
}
