package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Input shape shared by every workload: the paper's sensor settings at the
// resolution a utility bills at.
const (
	inputTrainDays = 2
	inputK         = 16
	inputWindow    = 900 // seconds; 96 symbols a day
)

// inputs is everything a run feeds the stack, derived from the seed alone.
// Meter m replays house m mod sc.houses, starting at a seeded offset into
// that house's sc.liveDays encoded days and cycling through them, so symbol
// skew is the dataset's and the meters of a house are out of phase.
type inputs struct {
	seed   int64
	meters int
	perDay int
	window int64
	houses []house
	rot    []int
	sensor sensorStats
}

func genInputs(seed int64, meters int, sc scale) (*inputs, error) {
	houses, st, err := genHouses(seed, sc.houses, inputTrainDays, sc.liveDays, inputK, inputWindow)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed:   seed,
		meters: meters,
		perDay: 86400 / inputWindow,
		window: inputWindow,
		houses: houses,
		rot:    make([]int, meters),
		sensor: st,
	}
	rng := newRand(seed, streamRotation)
	for m := range in.rot {
		in.rot[m] = rng.Intn(sc.liveDays)
	}
	return in, nil
}

func (in *inputs) house(m int) *house { return &in.houses[m%len(in.houses)] }
func (in *inputs) table(m int) *table { return in.house(m).table }

// day is the symbols of meter m's j-th day on its own timeline.
func (in *inputs) day(m, j int) []symbol {
	h := in.house(m)
	return h.days[(in.rot[m]+j)%len(h.days)]
}

// histogram is the oracle's answer for meter m's first n days.
func (in *inputs) histogram(m, n int) []uint64 {
	h := in.house(m)
	out := make([]uint64, inputK)
	for j := 0; j < len(h.days) && j < n; j++ {
		// Day j recurs every len(h.days) days.
		times := uint64((n - j + len(h.days) - 1) / len(h.days))
		for i, c := range h.hists[(in.rot[m]+j)%len(h.days)] {
			out[i] += c * times
		}
	}
	return out
}

// dayFirstT is the timestamp of the first symbol of day j: symbols carry
// their window's end, so day j covers (j·86400, (j+1)·86400].
func dayFirstT(j int, window int64) int64 { return int64(j)*86400 + window }

// Random streams: each consumer of randomness has its own, so adding a
// consumer never shifts another's sequence.
const (
	streamRotation = 1
	streamQuery    = 100 // + caller index
)

func newRand(seed int64, stream int64) *rand.Rand {
	// splitmix64 finaliser over (seed, stream).
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// queryKind is one of the four queries in the dashboard mix.
type queryKind uint8

const (
	kindWindow    queryKind = iota // one meter, aggregate over 1 unaligned day
	kindHist                       // one meter, histogram over 30 days
	kindFleet                      // fleet aggregate over 1 day
	kindFleetHist                  // fleet histogram over 30 days
	numKinds
)

var kindNames = [numKinds]string{"window", "hist", "fleet", "fleethist"}

// rangeDays is how long a range each kind asks for.
func (k queryKind) rangeDays() int {
	if k == kindHist || k == kindFleetHist {
		return 30
	}
	return 1
}

// queryOp is one generated query: what to ask, of which meter, and how far
// into the span of days on offer the range starts (frac/2³² of the slack).
// The span itself is resolved when the op runs — the whole preloaded history
// on a read-only store, the most recent days under live ingest.
type queryOp struct {
	kind  queryKind
	meter int
	frac  uint32
}

// queryGen draws the mix: 60 % window, 20 % histogram, 15 % fleet aggregate,
// 5 % fleet histogram.
type queryGen struct {
	rng    *rand.Rand
	meters int
}

func newQueryGen(seed int64, caller, meters int) *queryGen {
	return &queryGen{rng: newRand(seed, streamQuery+int64(caller)), meters: meters}
}

func (g *queryGen) next() queryOp {
	op := queryOp{meter: g.rng.Intn(g.meters), frac: g.rng.Uint32()}
	switch p := g.rng.Intn(100); {
	case p < 60:
		op.kind = kindWindow
	case p < 80:
		op.kind = kindHist
	case p < 95:
		op.kind = kindFleet
	default:
		op.kind = kindFleetHist
	}
	return op
}

// resolve turns the op into [t0, t1) inside days [lo, hi) of its meter.
func (op queryOp) resolve(lo, hi int) (t0, t1 int64) {
	n := op.kind.rangeDays()
	slack := int64(hi-lo-n) * 86400
	if slack < 0 {
		slack = 0
	}
	t0 = int64(lo)*86400 + int64(uint64(op.frac)*uint64(slack)>>32)
	return t0, t0 + int64(n)*86400
}

// opsHash fingerprints everything the seed decides: each meter's place in
// its house's cycle of days, every encoded day's symbols, and the first 4096
// queries of each caller.
func (in *inputs) opsHash(callers int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for m := 0; m < in.meters; m++ {
		put(uint64(in.rot[m]))
	}
	for i := range in.houses {
		for _, sum := range in.houses[i].sums {
			put(sum)
		}
	}
	for c := 0; c < callers; c++ {
		g := newQueryGen(in.seed, c, in.meters)
		for i := 0; i < 4096; i++ {
			op := g.next()
			put(uint64(op.kind)<<56 | uint64(op.meter)<<32 | uint64(op.frac))
		}
	}
	return h.Sum64()
}
