package server

import (
	"math/rand"
	"sort"
	"testing"
)

// TestRangeBlocksMatchesLastTSearch: rangeBlocks' lower bound — a search of
// the dense firstTs directory plus one step back — is the bound it replaced,
// the first block whose lastT is at or past t0, on random ordered chains with
// gaps, single-point blocks, blocks that touch or repeat a timestamp, and t0
// on, between and beyond block edges.
func TestRangeBlocksMatchesLastTSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(40)
		ix := sealedIndex{ordered: true}
		var edges []int64
		next := int64(rng.Intn(50)) - 25
		for i := 0; i < n; i++ {
			b, first := block{n: 1}, next
			if rng.Intn(3) > 0 { // else a single-point block: stride 0, lastT == firstT
				b.n = uint16(2 + rng.Intn(BlockCap-1))
				b.stride = int64(1 + rng.Intn(9))
			}
			ix.blocks = append(ix.blocks, b)
			ix.firstTs = append(ix.firstTs, first)
			edges = append(edges, first, b.lastT(first))
			// The next block starts at this one's last timestamp (allowed:
			// ordered means lastT ≤ next firstT), right after it, or past a gap.
			next = b.lastT(first) + []int64{0, 0, 1, int64(rng.Intn(1000))}[rng.Intn(4)]
		}
		probe := func(t0 int64) {
			t.Helper()
			want := sort.Search(n, func(i int) bool { return ix.blocks[i].lastT(ix.firstTs[i]) >= t0 })
			for _, t1 := range []int64{t0 + 1, t0 + 50, noTail} {
				lo, hi := ix.rangeBlocks(t0, t1)
				wantHi := want + sort.Search(n-want, func(i int) bool { return ix.firstTs[want+i] >= t1 })
				if lo != want || hi != wantHi {
					t.Fatalf("round %d: rangeBlocks(%d, %d) = [%d, %d), want [%d, %d); firstTs %v", round, t0, t1, lo, hi, want, wantHi, ix.firstTs)
				}
			}
		}
		for _, e := range edges {
			probe(e - 1)
			probe(e)
			probe(e + 1)
		}
		for i := 0; i < 20; i++ {
			probe(edges[0] - 5 + rng.Int63n(edges[len(edges)-1]-edges[0]+10))
		}
	}
}

// Assertion views of a meter's published state.

func sealedBlocks(m Meter) int  { return len(m.e.idx.Load().blocks) }
func sealedSymbols(m Meter) int { return m.e.idx.Load().total }
func timeOrdered(m Meter) bool  { return m.e.idx.Load().ordered }

// liveTailStart returns the first timestamp of the meter's live tail; ok is
// false when it has none.
func liveTailStart(m Meter) (int64, bool) {
	tf := m.e.tailFirstT.Load()
	return tf, tf != noTail
}

// eachView runs fn over every view CollectRange yields for [t0, t1): the
// live tail inside its callback, then the sealed views.
func eachView(m Meter, t0, t1 int64, fn func(BlockView)) {
	for _, v := range m.CollectRange(t0, t1, nil, fn) {
		fn(v)
	}
}

// visitChain invokes fn for each non-empty block of the meter in append
// order, under the shard read lock: the unpruned full-chain walk.
func visitChain(s *Store, meterID uint64, fn func(BlockView)) {
	sh := s.shardOf(meterID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.meter(meterID); e != nil {
		for i := range e.blocks {
			first := e.tailFirstT.Load()
			if i < len(e.dirFirst) {
				first = e.dirFirst[i]
			}
			if e.blocks[i].n > 0 {
				fn(viewOf(&e.blocks[i], first, e.tables, e.lanes))
			}
		}
	}
}
