package stats

import (
	"errors"
	"sort"
)

// P2Quantile estimates a single quantile of a stream in O(1) memory using
// the P² algorithm (Jain & Chlamtac, CACM 1985): five markers whose heights
// approximate the quantile curve, adjusted with piecewise-parabolic
// interpolation as observations arrive.
//
// The metrics package uses it for its streaming latency quantiles.
type P2Quantile struct {
	p float64
	// marker heights and positions (1-based positions per the paper).
	q  [5]float64
	n  [5]float64
	np [5]float64
	dn [5]float64
	// bootstrap buffer for the first five observations.
	init  []float64
	count int
}

// NewP2Quantile estimates the q-th quantile, 0 < q < 1.
func NewP2Quantile(q float64) (*P2Quantile, error) {
	if q <= 0 || q >= 1 {
		return nil, errors.New("stats: P² quantile must be in (0,1)")
	}
	e := &P2Quantile{p: q}
	e.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	// Pre-size the bootstrap buffer so Add never allocates — estimators sit
	// on lock-free recording paths (internal/metrics) whose AllocsPerRun
	// pins forbid even the five startup appends from growing a slice.
	e.init = make([]float64, 0, 5)
	return e, nil
}

// Add feeds one observation.
func (e *P2Quantile) Add(x float64) {
	e.count++
	if len(e.init) < 5 {
		e.init = append(e.init, x)
		if len(e.init) == 5 {
			sort.Float64s(e.init)
			for i := 0; i < 5; i++ {
				e.q[i] = e.init[i]
				e.n[i] = float64(i + 1)
			}
			e.np = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}

	// Find the cell k containing x and clamp extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for i := 1; i < 5; i++ {
			if x < e.q[i] {
				k = i - 1
				break
			}
		}
	}
	// Increment positions of markers above the cell.
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	// Update desired positions.
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := sign(d)
			qNew := e.parabolic(i, s)
			if e.q[i-1] < qNew && qNew < e.q[i+1] {
				e.q[i] = qNew
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

func sign(x float64) float64 {
	if x >= 0 {
		return 1
	}
	return -1
}

// parabolic is the P² piecewise-parabolic height prediction.
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height prediction.
func (e *P2Quantile) linear(i int, d float64) float64 {
	return e.q[i] + d*(e.q[i+int(d)]-e.q[i])/(e.n[i+int(d)]-e.n[i])
}

// Count returns the number of observations.
func (e *P2Quantile) Count() int { return e.count }

// Value returns the current quantile estimate. For fewer than five
// observations it falls back to the exact small-sample quantile.
func (e *P2Quantile) Value() float64 {
	if e.count == 0 {
		return 0
	}
	if len(e.init) < 5 {
		sorted := append([]float64(nil), e.init...)
		sort.Float64s(sorted)
		return quantileSorted(sorted, e.p)
	}
	return e.q[2]
}
