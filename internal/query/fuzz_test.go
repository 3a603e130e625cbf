package query

import (
	"math/rand"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// FuzzQueryVsOracle is the differential harness of the compressed-domain
// engine: a random table, a random gapped stream with mid-stream table
// re-pushes, and random time ranges — every aggregate must agree with the
// naive decode-then-aggregate oracle (Snapshot + point loop). Integer
// aggregates (Count, Min, Max, Histogram) must agree exactly; Sum and Mean
// within float re-association tolerance, since the engine adds per-block
// partial sums in a different order than the oracle's point loop.
//
// Beyond the fuzzed range, every input is also checked on ranges that
// straddle the sealed/tail boundary (the published index ends exactly
// there, so an off-by-one in the publication or tail-fold protocol shows up
// only on such ranges), and queried *while* a concurrent appender keeps
// growing the same meter — counts over a fixed range must be monotone
// non-decreasing across successive reads, and the post-quiescence result
// must match the oracle exactly.
//
// Levels are fuzzed over 1–16. Finer tables cannot exist in this system:
// a level-L table materializes 2^L−1 separators, so level 30 alone would
// need an 8.6 GB slice — the kernels underneath are range-fuzzed at every
// level the codec supports by the symbolic package's tests.
func FuzzQueryVsOracle(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(1500), uint8(10), uint16(400), int64(0), int64(1<<40))
	f.Add(int64(2), uint8(1), uint16(700), uint8(30), uint16(0), int64(900*511), int64(900*513))
	f.Add(int64(3), uint8(3), uint16(1), uint8(0), uint16(0), int64(0), int64(1))
	f.Add(int64(4), uint8(16), uint16(600), uint8(5), uint16(100), int64(900*100), int64(900*100))
	f.Add(int64(5), uint8(12), uint16(1100), uint8(15), uint16(0), int64(-4000), int64(900*2000))
	f.Add(int64(6), uint8(4), uint16(1900), uint8(0), uint16(0), int64(900*500), int64(900*600))
	f.Fuzz(func(t *testing.T, seed int64, levelRaw uint8, nRaw uint16, gapRaw uint8, epochRaw uint16, t0, t1 int64) {
		level := 1 + int(levelRaw)%16
		n := 1 + int(nRaw)%2000 // crosses multiple 512-symbol block boundaries
		gapPct := int(gapRaw) % 50
		epochEvery := int(epochRaw) % 1000

		rng := rand.New(rand.NewSource(seed))
		st := server.NewStore(4)
		table := randTable(t, rng, level)
		last := seedMeter(t, st, rng, 77, table, n, gapPct, epochEvery)
		e := New(st)
		k := table.K()

		// Clamp the fuzzed range into the stream's neighborhood so most
		// iterations touch data; out-of-range and inverted ranges still
		// occur via the modulo and are part of the contract.
		span := last + 2*900
		t0 = t0 % span
		t1 = t1 % (span + 1)
		checkAgainstOracle(t, e, st, 77, k, t0, t1)

		// Ranges straddling the sealed/tail boundary: the published index
		// ends exactly at the live tail's first timestamp, so probe half-open
		// ranges around it from both sides and across it.
		if m, ok := st.Meter(77); ok {
			if tf, live := liveTailStart(m); live {
				const w = 900
				for _, r := range [][2]int64{
					{tf - 5*w, tf},         // sealed side only, ending at the boundary
					{tf, tf + 5*w},         // tail side only, starting at the boundary
					{tf - 3*w, tf + 3*w},   // across
					{tf - 1, tf + 1},       // tightest straddle
					{tf - 700*w, tf + 2*w}, // several sealed blocks plus the tail edge
				} {
					checkAgainstOracle(t, e, st, 77, k, r[0], r[1])
				}
			}
		}

		// Concurrent appends during the query: an appender extends the same
		// meter while we repeatedly Count a fixed range covering the whole
		// stream's future. Counts must never go backwards (a torn publication
		// would lose sealed blocks); after the appender joins, the engine
		// must agree with the oracle again, exactly.
		const extra = 300
		errc := make(chan error, 1)
		go func() {
			defer close(errc)
			ts := last + 900
			for sent := 0; sent < extra; {
				batch := 1 + int(ts%37)%60
				if batch > extra-sent {
					batch = extra - sent
				}
				pts := make([]symbolic.SymbolPoint, batch)
				for i := range pts {
					pts[i] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol(int(ts/900)%k, level)}
					ts += 900
				}
				if _, err := appendNext(st, 77, pts); err != nil {
					errc <- err
					return
				}
				sent += batch
			}
		}()
		qt0, qt1 := int64(0), last+int64(extra+10)*900
		var prev uint64
		for i := 0; i < 50; i++ {
			c, ok := e.Count(77, qt0, qt1)
			if !ok {
				t.Fatal("meter vanished mid-ingest")
			}
			if c < prev {
				t.Fatalf("count went backwards during ingest: %d -> %d", prev, c)
			}
			prev = c
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, e, st, 77, k, qt0, qt1)
		checkAgainstOracle(t, e, st, 77, k, last-5*900, last+20*900)
	})
}
