package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"symmeter/internal/symbolic"
)

// --- the per-point reference -------------------------------------------------
//
// refAppend is the append this package shipped before the run-granular core:
// one accepts check, one bit-pack and one summary update per point. It is kept
// here, test-only, as the oracle appendRun must match byte for byte.

func (b *block) refAccepts(firstT, t int64, epoch uint32) bool {
	if b.epoch != epoch || b.n >= BlockCap {
		return false
	}
	switch b.n {
	case 0:
		return true
	case 1:
		_, ok := strideFor(firstT, t)
		return ok
	default:
		return t == firstT+int64(b.n)*b.stride
	}
}

func (b *block) refPush(hist []uint16, firstT, t int64, idx uint32, v float64) {
	switch b.n {
	case 0:
		b.minV = v
		b.maxV = v
	case 1:
		b.stride = t - firstT
	}
	packSymbolAt(b.payload, int(b.level), int(b.n), idx)
	if hist != nil {
		hist[idx]++
	}
	b.sum += v
	if v < b.minV {
		b.minV = v
	}
	if v > b.maxV {
		b.maxV = v
	}
	b.n++
}

func refAppend(s *Store, meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	sh := s.shardOf(meterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, table, err := sh.current(meterID)
	if err != nil {
		return 0, err
	}
	epoch := uint32(len(e.tables) - 1)
	level := table.Level()
	for i := range pts {
		if pts[i].S.Level() != level {
			return 0, fmt.Errorf("%w: point %d has level %d, table has level %d",
				ErrBadSymbol, i, pts[i].S.Level(), level)
		}
	}
	values := table.ReconstructionValues()
	tail, first := e.tail(), e.tailFirstT.Load()
	for i, sp := range pts {
		if tail == nil || !tail.refAccepts(first, sp.T, epoch) {
			if tail != nil {
				if err := s.sealTail(e, tail); err != nil {
					e.total.Add(int64(i))
					return i, err
				}
				e.publish()
			}
			tail, first = e.newBlock(epoch, level), sp.T
			e.tailFirstT.Store(sp.T)
		}
		idx := uint32(sp.S.Index())
		tail.refPush(tail.hist(e.lanes), first, sp.T, idx, values[idx])
	}
	e.total.Add(int64(len(pts)))
	return len(pts), nil
}

// chainDiff compares one meter's whole state in two stores — every block's
// header, payload bytes, histogram and the bit patterns of its float summary,
// plus everything the read path publishes (the directory and tailFirstT hold
// the blocks' first timestamps) — and describes the first difference (""
// when identical).
func chainDiff(got, want *Store, meterID uint64) string {
	g, w := got.shardOf(meterID).meter(meterID), want.shardOf(meterID).meter(meterID)
	if g == nil || w == nil {
		return fmt.Sprintf("meter present: %v vs %v", g != nil, w != nil)
	}
	if len(g.blocks) != len(w.blocks) {
		return fmt.Sprintf("%d blocks, want %d", len(g.blocks), len(w.blocks))
	}
	for i := range g.blocks {
		a, b := &g.blocks[i], &w.blocks[i]
		switch {
		case a.epoch != b.epoch || a.level != b.level || a.n != b.n || a.stride != b.stride:
			return fmt.Sprintf("block %d header: epoch %d level %d n %d stride %d, want epoch %d level %d n %d stride %d",
				i, a.epoch, a.level, a.n, a.stride, b.epoch, b.level, b.n, b.stride)
		case math.Float64bits(a.sum) != math.Float64bits(b.sum) ||
			math.Float64bits(a.minV) != math.Float64bits(b.minV) ||
			math.Float64bits(a.maxV) != math.Float64bits(b.maxV):
			return fmt.Sprintf("block %d summary: sum %v min %v max %v, want sum %v min %v max %v", i, a.sum, a.minV, a.maxV, b.sum, b.minV, b.maxV)
		case !bytes.Equal(a.payload, b.payload):
			return fmt.Sprintf("block %d payload:\n got %x\nwant %x", i, a.payload, b.payload)
		case (a.hist(g.lanes) == nil) != (b.hist(w.lanes) == nil) || fmt.Sprint(a.hist(g.lanes)) != fmt.Sprint(b.hist(w.lanes)):
			return fmt.Sprintf("block %d hist: %v, want %v", i, a.hist(g.lanes), b.hist(w.lanes))
		case a.flags&flagSpilled != b.flags&flagSpilled:
			return fmt.Sprintf("block %d spilled: %v, want %v", i, a.flags&flagSpilled != 0, b.flags&flagSpilled != 0)
		}
	}
	gi, wi := g.idx.Load(), w.idx.Load()
	if len(gi.blocks) != len(wi.blocks) || gi.total != wi.total || gi.ordered != wi.ordered ||
		fmt.Sprint(gi.firstTs) != fmt.Sprint(wi.firstTs) {
		return fmt.Sprintf("published index: %d blocks total %d ordered %v dir %v, want %d blocks total %d ordered %v dir %v",
			len(gi.blocks), gi.total, gi.ordered, gi.firstTs, len(wi.blocks), wi.total, wi.ordered, wi.firstTs)
	}
	if g.tailFirstT.Load() != w.tailFirstT.Load() || g.total.Load() != w.total.Load() {
		return fmt.Sprintf("tailFirstT %d total %d, want tailFirstT %d total %d",
			g.tailFirstT.Load(), g.total.Load(), w.tailFirstT.Load(), w.total.Load())
	}
	return ""
}

// levelTable returns a table at the given symbol level with distinct,
// non-monotone reconstruction values, so a misplaced symbol moves the sum and
// min/max cannot be read off the index order.
func levelTable(tb testing.TB, level int) *symbolic.Table {
	tb.Helper()
	k := 1 << level
	seps := make([]float64, k-1)
	for i := range seps {
		seps[i] = float64(i + 1)
	}
	table, err := symbolic.NewTable(k, seps, 0, float64(k))
	if err != nil {
		tb.Fatal(err)
	}
	repr := make([]float64, k)
	for i := range repr {
		repr[i] = float64((i*2654435761)%1000003)/7 + 0.1*float64(i%3)
	}
	return withRepresentatives(tb, table, repr)
}

// twin is a store under test (run-granular AppendSeq) beside its per-point
// reference, fed the same operations.
type twin struct {
	tb        testing.TB
	got, want *Store
	gotSink   *flakySink
	wantSink  *flakySink
	seq       uint64 // got's last committed batch seq
}

// flakySink relocates payloads like a segment writer, failing the calls whose
// ordinal is in failAt.
type flakySink struct {
	calls  int
	failAt map[int]bool
}

var errFlaky = errors.New("flaky sink")

func (s *flakySink) SealedBlock(_ uint64, blk SealedBlock) ([]byte, error) {
	s.calls++
	if s.failAt[s.calls] {
		return nil, errFlaky
	}
	return append([]byte(nil), blk.Payload...), nil
}

func newTwin(tb testing.TB, failAt map[int]bool) *twin {
	tw := &twin{tb: tb, got: NewStore(1), want: NewStore(1)}
	if failAt != nil {
		tw.gotSink, tw.wantSink = &flakySink{failAt: failAt}, &flakySink{failAt: failAt}
		tw.got.SetSealSink(tw.gotSink)
		tw.want.SetSealSink(tw.wantSink)
	}
	for _, st := range []*Store{tw.got, tw.want} {
		if err := st.StartSession(1); err != nil {
			tb.Fatal(err)
		}
	}
	return tw
}

func (tw *twin) pushTable(table *symbolic.Table) {
	for _, st := range []*Store{tw.got, tw.want} {
		if err := st.PushTable(1, table); err != nil {
			tw.tb.Fatal(err)
		}
	}
}

// append feeds one batch to both stores and requires the same count, the same
// error and identical chains afterwards. A batch cut short by a failing seal
// leaves the mark where it was and resumes from the returned count under the
// same seq, as the AppendSeq contract says a caller must.
func (tw *twin) append(label string, pts []symbolic.SymbolPoint) {
	tw.tb.Helper()
	for len(pts) > 0 {
		gn, dup, gerr := tw.got.AppendSeq(1, tw.seq+1, pts)
		wn, werr := refAppend(tw.want, 1, pts)
		if gn != wn || dup || (gerr == nil) != (werr == nil) {
			tw.tb.Fatalf("%s: AppendSeq = (%d, dup=%v, %v), reference = (%d, %v)", label, gn, dup, gerr, wn, werr)
		}
		if d := chainDiff(tw.got, tw.want, 1); d != "" {
			tw.tb.Fatalf("%s: %s", label, d)
		}
		if gerr == nil {
			tw.seq++
			return
		}
		if !errors.Is(gerr, errFlaky) {
			tw.tb.Fatalf("%s: %v", label, gerr)
		}
		pts = pts[gn:]
	}
}

// batch builds n points from firstT stepping stride (wrapping, like the WAL's
// kind-0 decode) with symbols drawn from rng at the table's level.
func batch(rng *rand.Rand, table *symbolic.Table, firstT, stride int64, n int) []symbolic.SymbolPoint {
	pts := make([]symbolic.SymbolPoint, n)
	for i := range pts {
		pts[i] = symbolic.SymbolPoint{T: firstT + int64(i)*stride, S: symbolic.NewSymbol(rng.Intn(table.K()), table.Level())}
	}
	return pts
}

// TestAppendRunEqualsPerPoint drives the run-granular AppendSeq and the per-point
// reference through the same streams and requires byte-identical chains after
// every batch: each feasible level, every destination bit residue (batch
// lengths coprime to 8 walk the tail through all of them), runs that straddle
// one to three block boundaries, gaps, stride changes, epoch changes, repeated
// and backwards timestamps, and the strides strideFor rejects.
func TestAppendRunEqualsPerPoint(t *testing.T) {
	for _, level := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16} {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(level)))
			table := levelTable(t, level)
			tw := newTwin(t, nil)
			tw.pushTable(table)
			var ts int64
			next := func(n int, stride int64) []symbolic.SymbolPoint {
				pts := batch(rng, table, ts, stride, n)
				ts += int64(n) * stride
				return pts
			}
			// Odd batch lengths: the tail's bit offset takes every residue.
			for _, n := range []int{1, 3, 5, 7, 11, 13, 96, 97, 1, 2} {
				tw.append(fmt.Sprintf("regular n=%d", n), next(n, 60))
			}
			// Straddle one, two and three block boundaries in one run.
			for _, n := range []int{BlockCap, BlockCap + 17, 2*BlockCap + 5, 3*BlockCap + 1} {
				tw.append(fmt.Sprintf("straddle n=%d", n), next(n, 60))
			}
			// A gap, then a stride change mid-stream, then a single point.
			ts += 10_000
			tw.append("after gap", next(9, 60))
			tw.append("stride change", next(9, 15))
			tw.append("single", next(1, 15))
			// Epoch change: the tail seals although its stride could continue.
			tw.pushTable(table)
			tw.append("new epoch", next(40, 15))
			// Non-arithmetic batch: several runs inside one AppendSeq.
			mixed := append(next(5, 60), next(4, 7)...)
			ts += 999
			mixed = append(mixed, next(6, 60)...)
			tw.append("mixed", mixed)
			// Stride 0 and a backwards step: every point opens its own block.
			tw.append("stride 0", batch(rng, table, ts, 0, 4))
			tw.append("backwards", batch(rng, table, ts, -60, 4))
			// Strides strideFor rejects: the span or the end overflows int64.
			tw.append("span overflow", batch(rng, table, 0, maxInt64/int64(BlockCap-1)+1, 3))
			tw.append("end overflow", batch(rng, table, maxInt64-1000, 5, 3))
			tw.append("wrap", batch(rng, table, maxInt64-10, 7, 5))
			tw.append("negative start", batch(rng, table, -maxInt64, maxInt64/int64(BlockCap-1), 3))
			tw.append("largest stride", batch(rng, table, -maxInt64/2, maxInt64/int64(BlockCap-1)-1, 5))
		})
	}
}

// TestAppendRunFailingSinkMidRun: a seal that fails inside a run stops the
// commit at the same symbol, with the same count, as the per-point reference,
// and the retry picks up identically.
func TestAppendRunFailingSinkMidRun(t *testing.T) {
	table := levelTable(t, 4)
	rng := rand.New(rand.NewSource(7))
	tw := newTwin(t, map[int]bool{2: true, 3: true, 6: true})
	tw.pushTable(table)
	var ts int64
	for i, n := range []int{96, 3*BlockCap + 40, 700, 96, 2 * BlockCap} {
		tw.append(fmt.Sprintf("batch %d", i), batch(rng, table, ts, 900, n))
		ts += int64(n) * 900
	}
	if tw.gotSink.calls != tw.wantSink.calls {
		t.Fatalf("sink calls: %d vs reference %d", tw.gotSink.calls, tw.wantSink.calls)
	}
}

// TestAppendRunValidation: a run the table or its own buffer cannot back is
// refused whole.
func TestAppendRunValidation(t *testing.T) {
	st := NewStore(1)
	if err := st.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRun(1, Run{Level: 4, Count: 1, Packed: []byte{0}}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("no table: %v", err)
	}
	if err := st.PushTable(1, levelTable(t, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRun(2, Run{Level: 4, Count: 1, Packed: []byte{0}}); !errors.Is(err, ErrUnknownMeter) {
		t.Fatalf("unknown meter: %v", err)
	}
	if _, err := st.AppendRun(1, Run{Level: 5, Count: 1, Packed: []byte{0}}); !errors.Is(err, ErrBadSymbol) {
		t.Fatalf("level mismatch: %v", err)
	}
	for _, r := range []Run{
		{Level: 4, Count: 3, Packed: []byte{0}},
		{Level: 4, Count: 1, Pos: 2, Packed: []byte{0}},
		{Level: 4, Count: -1, Packed: []byte{0}},
		{Level: 4, Count: 1, Pos: -1, Packed: []byte{0}},
		{Level: 4, Count: 1, Epoch: -1, Packed: []byte{0}},
		{Level: 4, Count: 1, Epoch: 1, Packed: []byte{0}},
	} {
		if n, err := st.AppendRun(1, r); err == nil || n != 0 {
			t.Fatalf("run %+v accepted: n=%d", r, n)
		}
	}
	if st.TotalSymbols() != 0 {
		t.Fatalf("refused runs stored %d symbols", st.TotalSymbols())
	}
}

// FuzzAppendRunVsPerPoint lets the fuzzer script the stream: each input byte
// pair picks a batch length and what happens to the timestamps before it (a
// regular step, a gap, a new stride, a table push, a repeat, a jump near the
// int64 edge), at a fuzzed level, against a sink that fails on fuzzed seals.
func FuzzAppendRunVsPerPoint(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{96, 0, 96, 0, 96, 0, 96, 0, 96, 0, 96, 0})
	f.Add(uint8(4), uint8(3), []byte{255, 0, 255, 0, 255, 0, 7, 1, 9, 2, 1, 3, 200, 0})
	f.Add(uint8(1), uint8(0), []byte{13, 0, 250, 0, 250, 0, 250, 0, 3, 4, 5, 5})
	f.Add(uint8(7), uint8(2), []byte{5, 0, 5, 6, 5, 0, 5, 7, 5, 0, 255, 2, 255, 0, 255, 0})
	f.Add(uint8(11), uint8(0), []byte{77, 0, 77, 1, 77, 3, 77, 0, 255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, lvl, fail uint8, script []byte) {
		level := int(lvl)%12 + 1
		table := levelTable(t, level)
		var failAt map[int]bool
		if fail != 0 {
			failAt = map[int]bool{int(fail%5) + 1: true, int(fail%7) + 3: true}
		}
		rng := rand.New(rand.NewSource(int64(lvl)<<8 | int64(fail)))
		tw := newTwin(t, failAt)
		tw.pushTable(table)
		ts, stride := int64(0), int64(60)
		var pending []symbolic.SymbolPoint // batches glued into one non-arithmetic AppendSeq
		if len(script) > 64 {
			script = script[:64]
		}
		for i := 0; i+1 < len(script); i += 2 {
			n := int(script[i])*5 + 1
			switch script[i+1] % 8 {
			case 1:
				ts += 100_000
			case 2:
				stride = int64(script[i])%97 + 1
			case 3:
				tw.append("flush before table", pending)
				pending = nil
				tw.pushTable(table)
			case 4:
				ts -= stride // repeat the last timestamp
			case 5:
				stride = 0
			case 6:
				ts, stride = maxInt64-int64(script[i])*3, 3
			case 7:
				ts, stride = -maxInt64+int64(script[i]), maxInt64/int64(BlockCap-1)+int64(script[i]%3)-1
			}
			pts := batch(rng, table, ts, stride, n)
			ts += int64(n) * stride
			if script[i+1]&0x80 != 0 {
				pending = append(pending, pts...)
				continue
			}
			tw.append(fmt.Sprintf("step %d", i/2), append(pending, pts...))
			pending = nil
		}
		tw.append("tail", pending)
	})
}

// TestLeadingRun pins the run splitter on the shapes AppendSeq feeds it.
func TestLeadingRun(t *testing.T) {
	at := func(ts ...int64) []symbolic.SymbolPoint {
		pts := make([]symbolic.SymbolPoint, len(ts))
		for i, v := range ts {
			pts[i].T = v
		}
		return pts
	}
	for _, c := range []struct {
		pts  []symbolic.SymbolPoint
		want int
	}{
		{at(), 0}, {at(5), 1}, {at(5, 1), 2}, {at(0, 60, 120), 3}, {at(0, 60, 121), 2},
		{at(7, 7, 7, 7), 4}, {at(0, 60, 120, 1000, 1060), 3}, {at(9, 6, 3, 0, -3, 5), 5},
		{at(maxInt64-1, maxInt64, -maxInt64-1, -maxInt64), 4},
	} {
		if got := LeadingRun(c.pts); got != c.want {
			t.Errorf("LeadingRun(%v) = %d, want %d", c.pts, got, c.want)
		}
	}
}

// packSymbolAt writes the symbol index into position pos of a headerless
// packed payload, one bit chunk at a time — the per-point packer the
// reference Append builds blocks with. The target bits must still be zero.
func packSymbolAt(payload []byte, level, pos int, index uint32) {
	bit := pos * level
	rem := level
	for rem > 0 {
		byteIdx, bitIdx := bit>>3, bit&7
		take := 8 - bitIdx
		if take > rem {
			take = rem
		}
		chunk := index >> uint(rem-take) & (1<<uint(take) - 1)
		payload[byteIdx] |= byte(chunk << uint(8-bitIdx-take))
		bit += take
		rem -= take
	}
}
