package client_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"symmeter/internal/query"
	"symmeter/pkg/client"
)

// fuzzClient is the shared connection for the fuzz target: the protocol's
// verdict errors are recoverable by design, so one connection survives the
// whole corpus — itself part of what's being fuzzed.
var fuzzClient struct {
	once sync.Once
	mu   sync.Mutex
	c    *client.Client
	err  error
}

func getFuzzClient(t testing.TB) *client.Client {
	t.Helper()
	addr, _ := startFixture(t)
	fuzzClient.once.Do(func() {
		fuzzClient.c, fuzzClient.err = client.Dial(addr)
	})
	if fuzzClient.err != nil {
		t.Fatal(fuzzClient.err)
	}
	return fuzzClient.c
}

// FuzzQueryProtocol is the differential fuzz for the wire path: every
// (op, scope, meter, range) combination must answer exactly what the
// in-process engine answers on the same store — integer aggregates
// bit-identical, per-meter floats bit-identical, fleet floats within
// merge-reassociation tolerance — and out-of-contract inputs must come back
// as typed verdicts that leave the connection usable.
func FuzzQueryProtocol(f *testing.F) {
	f.Add(uint8(0), false, uint8(1), int64(0), int64(fixtureEnd))
	f.Add(uint8(1), false, uint8(3), int64(100*fixtureWindow), int64(600*fixtureWindow+450))
	f.Add(uint8(6), true, uint8(0), int64(0), int64(fixtureEnd))
	f.Add(uint8(2), false, uint8(200), int64(0), int64(10))     // unknown meter
	f.Add(uint8(1), true, uint8(0), int64(500), int64(500))     // empty range
	f.Add(uint8(4), false, uint8(2), int64(900), int64(800))    // inverted range
	f.Add(uint8(5), false, uint8(7), int64(-5000), int64(5000)) // negative t0
	f.Add(uint8(6), false, uint8(4), int64(fixtureEnd), int64(fixtureEnd+100))

	f.Fuzz(func(t *testing.T, opSel uint8, fleet bool, meterSel uint8, t0, t1 int64) {
		_, eng := startFixture(t)
		c := getFuzzClient(t)
		fuzzClient.mu.Lock()
		defer fuzzClient.mu.Unlock()

		meterID := uint64(meterSel)
		badRange := t0 >= t1
		_, known := eng.Count(meterID, 0, 1) // meter existence, range-independent

		// checkErr handles the out-of-contract verdicts every op shares;
		// reports whether the result is a verdict (no value to compare).
		checkErr := func(err error) bool {
			if badRange {
				if !errors.Is(err, client.ErrBadRange) {
					t.Fatalf("t0=%d t1=%d: err = %v, want ErrBadRange", t0, t1, err)
				}
				return true
			}
			if !fleet && !known {
				if !errors.Is(err, client.ErrUnknownMeter) {
					t.Fatalf("meter %d: err = %v, want ErrUnknownMeter", meterID, err)
				}
				return true
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			return false
		}

		switch opSel % 7 {
		case 0: // Count
			var gotN uint64
			var err error
			if fleet {
				gotN, err = c.FleetCount(t0, t1)
			} else {
				gotN, err = c.Count(meterID, t0, t1)
			}
			if checkErr(err) {
				return
			}
			var wantN uint64
			if fleet {
				wantN = eng.FleetCount(t0, t1)
			} else {
				wantN, _ = eng.Count(meterID, t0, t1)
			}
			if gotN != wantN {
				t.Fatalf("count = %d, want %d", gotN, wantN)
			}
		case 1: // Sum
			if fleet {
				gotSum, gotN, err := c.FleetSum(t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg := eng.FleetAggregate(t0, t1)
				wantSum, wantN := wantAgg.Sum, wantAgg.Count
				if gotN != wantN || !approxEqual(gotSum, wantSum) {
					t.Fatalf("fleet sum = %v/%d, want %v/%d", gotSum, gotN, wantSum, wantN)
				}
			} else {
				gotSum, gotN, err := c.Sum(meterID, t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg, _ := eng.Aggregate(meterID, t0, t1)
				wantSum, wantN := wantAgg.Sum, wantAgg.Count
				if gotN != wantN || !bitsEqual(gotSum, wantSum) {
					t.Fatalf("sum = %v/%d, want %v/%d", gotSum, gotN, wantSum, wantN)
				}
			}
		case 2: // Mean
			if fleet {
				gotMean, err := c.FleetMean(t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg := eng.FleetAggregate(t0, t1)
				wantSum, wantN := wantAgg.Sum, wantAgg.Count
				wantMean := math.NaN()
				if wantN > 0 {
					wantMean = wantSum / float64(wantN)
				}
				if math.IsNaN(wantMean) != math.IsNaN(gotMean) ||
					(!math.IsNaN(wantMean) && !approxEqual(gotMean, wantMean)) {
					t.Fatalf("fleet mean = %v, want %v", gotMean, wantMean)
				}
			} else {
				gotMean, err := c.Mean(meterID, t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg, _ := eng.Aggregate(meterID, t0, t1)
				wantMean := wantAgg.Mean()
				if !bitsEqual(gotMean, wantMean) {
					t.Fatalf("mean = %v, want %v", gotMean, wantMean)
				}
			}
		case 3: // Min
			if fleet {
				gotAgg, err := c.FleetAggregate(t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg := eng.FleetAggregate(t0, t1)
				if gotAgg.Count != wantAgg.Count || (wantAgg.Count > 0 && !bitsEqual(gotAgg.Min, wantAgg.Min)) {
					t.Fatalf("fleet min = %+v, want %+v", gotAgg, wantAgg)
				}
			} else {
				gotMin, gotOK, err := c.Min(meterID, t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg, _ := eng.Aggregate(meterID, t0, t1)
				wantMin, wantOK := wantAgg.Min, wantAgg.Count > 0
				if gotOK != wantOK || (wantOK && !bitsEqual(gotMin, wantMin)) {
					t.Fatalf("min = %v/%v, want %v/%v", gotMin, gotOK, wantMin, wantOK)
				}
			}
		case 4: // Max
			gotMax, gotOK, err := c.Max(meterID, t0, t1)
			if fleet {
				gotAgg, aerr := c.FleetAggregate(t0, t1)
				if checkErr(aerr) {
					return
				}
				wantAgg := eng.FleetAggregate(t0, t1)
				if gotAgg.Count != wantAgg.Count || (wantAgg.Count > 0 && !bitsEqual(gotAgg.Max, wantAgg.Max)) {
					t.Fatalf("fleet max = %+v, want %+v", gotAgg, wantAgg)
				}
				return
			}
			if checkErr(err) {
				return
			}
			wantAgg, _ := eng.Aggregate(meterID, t0, t1)
			wantMax, wantOK := wantAgg.Max, wantAgg.Count > 0
			if gotOK != wantOK || (wantOK && !bitsEqual(gotMax, wantMax)) {
				t.Fatalf("max = %v/%v, want %v/%v", gotMax, gotOK, wantMax, wantOK)
			}
		case 5: // Aggregate
			if fleet {
				gotAgg, err := c.FleetAggregate(t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg := eng.FleetAggregate(t0, t1)
				if gotAgg.Count != wantAgg.Count || !approxEqual(gotAgg.Sum, wantAgg.Sum) ||
					(wantAgg.Count > 0 && (!bitsEqual(gotAgg.Min, wantAgg.Min) || !bitsEqual(gotAgg.Max, wantAgg.Max))) {
					t.Fatalf("fleet agg = %+v, want %+v", gotAgg, wantAgg)
				}
			} else {
				gotAgg, err := c.Aggregate(meterID, t0, t1)
				if checkErr(err) {
					return
				}
				wantAgg, _ := eng.Aggregate(meterID, t0, t1)
				if gotAgg.Count != wantAgg.Count || !bitsEqual(gotAgg.Sum, wantAgg.Sum) ||
					!bitsEqual(gotAgg.Min, wantAgg.Min) || !bitsEqual(gotAgg.Max, wantAgg.Max) {
					t.Fatalf("agg = %+v, want %+v", gotAgg, wantAgg)
				}
			}
		case 6: // Histogram
			var gotH client.Histogram
			var err error
			if fleet {
				err = c.FleetHistogramInto(&gotH, t0, t1)
			} else {
				err = c.HistogramInto(&gotH, meterID, t0, t1)
			}
			if checkErr(err) {
				return
			}
			var wantLevel int
			var wantCounts []uint64
			if fleet {
				wantH, herr := eng.FleetHistogram(t0, t1)
				if herr != nil {
					t.Fatalf("engine fleet histogram: %v", herr)
				}
				wantLevel, wantCounts = wantH.Level, wantH.Counts
			} else {
				var wantH query.Histogram
				if _, herr := eng.HistogramInto(&wantH, meterID, t0, t1); herr != nil {
					t.Fatalf("engine histogram: %v", herr)
				}
				wantLevel, wantCounts = wantH.Level, wantH.Counts
			}
			if gotH.Level != wantLevel || len(gotH.Counts) != len(wantCounts) {
				t.Fatalf("histogram = %d/%d bins, want %d/%d", gotH.Level, len(gotH.Counts), wantLevel, len(wantCounts))
			}
			for s := range gotH.Counts {
				if gotH.Counts[s] != wantCounts[s] {
					t.Fatalf("bin %d = %d, want %d", s, gotH.Counts[s], wantCounts[s])
				}
			}
		}
	})
}
