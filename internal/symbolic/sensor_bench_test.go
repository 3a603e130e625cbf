package symbolic_test

import (
	"testing"
	"time"

	"symmeter/internal/dataset"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
)

// sensorDays generates days [0, days) of one house at 1 Hz without gaps:
// the sensor's raw input, as the benchmark's ingest workloads produce it.
func sensorDays(days int) []*timeseries.Series {
	gen := dataset.New(dataset.Config{Houses: 1, Days: days, Seed: 1, DisableGaps: true})
	out := make([]*timeseries.Series, days)
	for d := range out {
		out[d] = gen.HouseDay(0, d)
	}
	return out
}

// BenchmarkLearn learns a k = 16 table from two 1 Hz days, the sensor's
// bootstrap (§3), with the median learner — the in-package counterpart of
// the benchmark's symbolic.learn_ms row — and with the distinct-median one.
func BenchmarkLearn(b *testing.B) {
	var vals []float64
	for _, day := range sensorDays(2) {
		for _, p := range day.Points {
			vals = append(vals, p.V)
		}
	}
	for _, method := range []symbolic.Method{symbolic.MethodMedian, symbolic.MethodDistinctMedian} {
		b.Run(method.String(), func(b *testing.B) {
			start := time.Now()
			n := 0
			for b.Loop() {
				if _, err := symbolic.Learn(method, vals, 16); err != nil {
					b.Fatal(err)
				}
				n++
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(n*len(vals)), "ns/value")
		})
	}
}

// BenchmarkEncodeSeries encodes one 1 Hz day into 900 s windows: the
// in-package counterpart of the benchmark's symbolic.encode_points_per_s row.
func BenchmarkEncodeSeries(b *testing.B) {
	days := sensorDays(3)
	var tb symbolic.TableBuilder
	tb.PushSeries(days[0])
	tb.PushSeries(days[1])
	tab, err := tb.Build(symbolic.MethodMedian, 16)
	if err != nil {
		b.Fatal(err)
	}
	day := days[2]
	start := time.Now()
	n := 0
	for b.Loop() {
		if _, err := symbolic.EncodeSeries(day, tab, 900); err != nil {
			b.Fatal(err)
		}
		n++
	}
	b.ReportMetric(float64(n*day.Len())/time.Since(start).Seconds(), "points/s")
}
