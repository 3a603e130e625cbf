package main

// sut.go is the adapter between the benchmark and the system under test: it
// is the only file in this package that imports the repository's packages,
// so the surface the frozen benchmark pins is exactly what this file calls
// (README.md lists it; TestOnlySutImportsTheRepo enforces it). It uses the
// sequenced ingest API only — nothing ROADMAP item 2 marks for deletion.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"symmeter/internal/dataset"
	"symmeter/internal/metrics"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
	"symmeter/pkg/client"
)

type (
	symbol = symbolic.Symbol
	table  = symbolic.Table
)

// kernelPath is the symbolic package's SIMD dispatch path ("avx2", "neon",
// "scalar"), printed with every result.
func kernelPath() string { return symbolic.KernelPath() }

// --- sensor side: dataset → table → symbols --------------------------------

// house is one household's sensor-side output: the lookup table learned from
// its training days and its live days encoded at the benchmark window.
type house struct {
	table *table
	days  [][]symbol
	hists [][]uint64 // per day: how often each symbol index occurs
	sums  []uint64   // per day: FNV-1a over the symbol indexes in order
}

// sensorStats is what producing the houses cost, and how faithful the
// symbols are to the window means they replace.
type sensorStats struct {
	rawPoints int
	generate  time.Duration // producing the raw 1 Hz series: the benchmark's cost, not the sensor's
	encode    time.Duration
	learn     []time.Duration // one per house
	absErrSum float64         // Σ |table value − window mean|, watts
	windows   int
}

// genHouses runs the paper's sensor pipeline for every house: a MethodMedian
// table from the training days, then EncodeSeries over each live day. Gaps
// are disabled so every day is exactly 86400/window symbols — one batch.
func genHouses(seed int64, houses, trainDays, liveDays, k int, window int64) ([]house, sensorStats, error) {
	gen := dataset.New(dataset.Config{Houses: houses, Days: trainDays + liveDays, Seed: seed, DisableGaps: true})
	perDay := int(86400 / window)
	out := make([]house, houses)
	var st sensorStats
	for h := range out {
		var tb symbolic.TableBuilder
		t0 := time.Now()
		for d := 0; d < trainDays; d++ {
			tb.PushSeries(gen.HouseDay(h, d))
		}
		st.generate += time.Since(t0)
		t0 = time.Now()
		tbl, err := tb.Build(symbolic.MethodMedian, k)
		st.learn = append(st.learn, time.Since(t0))
		if err != nil {
			return nil, st, fmt.Errorf("house %d: learn table: %w", h, err)
		}
		out[h].table = tbl
		values := tbl.ReconstructionValues()
		for d := trainDays; d < trainDays+liveDays; d++ {
			t0 := time.Now()
			day := gen.HouseDay(h, d)
			st.generate += time.Since(t0)
			t0 = time.Now()
			ss, err := symbolic.EncodeSeries(day, tbl, window)
			st.encode += time.Since(t0)
			st.rawPoints += day.Len()
			if err != nil {
				return nil, st, fmt.Errorf("house %d day %d: encode: %w", h, d, err)
			}
			if len(ss.Points) != perDay {
				return nil, st, fmt.Errorf("house %d day %d: %d symbols, want %d", h, d, len(ss.Points), perDay)
			}
			syms := make([]symbol, perDay)
			for i, p := range ss.Points {
				syms[i] = p.S
			}
			out[h].days = append(out[h].days, syms)
			hist := make([]uint64, k)
			sum := uint64(14695981039346656037)
			for _, s := range syms {
				hist[s.Index()]++
				sum = (sum ^ uint64(s.Index())) * 1099511628211
			}
			out[h].hists = append(out[h].hists, hist)
			out[h].sums = append(out[h].sums, sum)
			// Reconstruction error against the window means the symbols stand for.
			sums := make([]float64, perDay)
			counts := make([]int, perDay)
			base := int64(d) * 86400
			for _, p := range day.Points {
				w := int((p.T - base) / window)
				sums[w] += p.V
				counts[w]++
			}
			for i, s := range syms {
				if counts[i] > 0 {
					st.absErrSum += math.Abs(values[s.Index()] - sums[i]/float64(counts[i]))
					st.windows++
				}
			}
		}
	}
	return out, st, nil
}

// --- the stack under test ---------------------------------------------------

// stack is what cmd/serve assembles: a durable engine, the service on top of
// its recovered store, and the query engine behind the same listener.
type stack struct {
	dir    string
	shards int
	eng    *storage.Engine
	reg    *metrics.Registry
	svc    *server.Service
	qe     *query.Engine
	addr   string
}

// recoveryStats is the part of storage.RecoveryStats the benchmark reports.
type recoveryStats struct {
	segmentPoints  int64
	replayedPoints int64
}

// openStack opens (or recovers) dir in the given fsync mode. Every Open gets
// a fresh registry: two engines must not share one.
func openStack(dir string, shards int, fsync string) (*stack, error) {
	mode, err := storage.ParseSyncMode(fsync)
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: shards, Sync: mode, Metrics: reg})
	if err != nil {
		return nil, err
	}
	return &stack{dir: dir, shards: shards, eng: eng, reg: reg}, nil
}

func (s *stack) recovery() recoveryStats {
	r := s.eng.Recovery()
	return recoveryStats{segmentPoints: r.SegmentPoints, replayedPoints: r.ReplayedPoints}
}

func (s *stack) totalSymbols() int64 { return int64(s.eng.Store().TotalSymbols()) }

// preload commits every meter's table and its first nDays days through the
// engine's sequenced API in-process: seq 1 is the table, seq j+2 is day j.
func (s *stack) preload(in *inputs, nDays int) error {
	var pts []symbolic.SymbolPoint
	one := func(m int) error {
		id := uint64(m)
		if err := s.eng.StartSession(id); err != nil {
			return err
		}
		defer s.eng.EndSession(id)
		if _, err := s.eng.PushTableSeq(id, 1, in.table(m)); err != nil {
			return err
		}
		for j := 0; j < nDays; j++ {
			pts = fillPoints(pts, dayFirstT(j, in.window), in.window, in.day(m, j))
			if _, _, err := s.eng.AppendSeq(id, uint64(j+2), pts); err != nil {
				return err
			}
		}
		return nil
	}
	for m := 0; m < in.meters; m++ {
		if err := one(m); err != nil {
			return fmt.Errorf("preload meter %d: %w", m, err)
		}
	}
	return nil
}

func fillPoints(pts []symbolic.SymbolPoint, firstT, window int64, syms []symbol) []symbolic.SymbolPoint {
	pts = pts[:0]
	for i, s := range syms {
		pts = append(pts, symbolic.SymbolPoint{T: firstT + int64(i)*window, S: s})
	}
	return pts
}

// serve puts the service and the query engine on the engine's store and
// listens on loopback, as cmd/serve does.
func (s *stack) serve() error {
	s.svc = server.New(server.Config{
		Shards:      s.shards,
		Store:       s.eng.Store(),
		IdleTimeout: 2 * time.Minute,
		Metrics:     s.reg,
	})
	s.svc.SetIngest(s.eng)
	s.qe = query.New(s.svc.Store())
	s.svc.SetQueryHandler(s.qe)
	addr, err := s.svc.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = addr.String()
	return nil
}

// stopServing closes the listener and every session; the engine stays open.
func (s *stack) stopServing() error {
	if s.svc == nil {
		return nil
	}
	err := s.svc.Close()
	s.svc = nil
	return err
}

func (s *stack) close() error { return s.eng.Close() }
func (s *stack) abandon()     { s.eng.Abandon() }
func (s *stack) lastSeq(meter uint64) uint64 {
	return s.eng.LastSeq(meter)
}

func (s *stack) diskUsage() (walBytes, segBytes int64, err error) { return s.eng.DiskUsage() }

func (s *stack) memoryFootprint() (bytes, points int64) { return s.eng.Store().MemoryFootprint() }

func (s *stack) queryLocks() int64 { return s.eng.Store().QueryLockAcquisitions() }

// faults sums the engine's cumulative fault counters (expected 0).
func (s *stack) faults() uint64 {
	h := s.eng.Health()
	return h.WALWriteFailures + h.FsyncFailures + h.SpillFallbacks + h.ManifestRetries + h.ManifestFailures + h.Heals
}

// serverCounters is the slice of server.Stats the benchmark reports.
type serverCounters struct {
	symbols    int64
	duplicates int64
	refusals   int64
}

func (s *stack) counters() serverCounters {
	st := s.svc.Stats()
	return serverCounters{
		symbols:    st.Symbols,
		duplicates: st.DuplicateBatches,
		refusals:   st.OverloadRefusals + st.DegradedSessions + st.DrainRefusals,
	}
}

// ingestBytesIn is the bytes the server has read off ingest connections:
// everything it read, less the query request frames.
func (s *stack) ingestBytesIn() (int64, error) {
	series, err := s.scrape()
	if err != nil {
		return 0, err
	}
	return s.svc.Stats().BytesIn - int64(series[seriesQueryBytes]), nil
}

// scrape renders the stack's registry in the Prometheus text format and
// returns every sample keyed by `name{labels}` exactly as exposed.
func (s *stack) scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// Names of the registry series the per-layer metrics read.
const (
	seriesBatchP50   = `symmeter_ingest_batch_seconds{quantile="0.5"}`
	seriesQueryP50   = `symmeter_query_seconds{quantile="0.5"}`
	seriesWALP50     = `symmeter_wal_append_seconds{quantile="0.5"}`
	seriesFsyncP50   = `symmeter_wal_fsync_seconds{quantile="0.5"}`
	seriesFsyncCount = `symmeter_wal_fsync_seconds_count`
	seriesWALCount   = `symmeter_wal_append_seconds_count`
	seriesQueryCount = `symmeter_query_seconds_count`
	seriesQueryBytes = `symmeter_transport_frame_bytes_total{type="Q",dir="in"}`
	prefixFramesIn   = `symmeter_transport_frames_total{`
	prefixFrameBytes = `symmeter_transport_frame_bytes_total{`
	labelDirIn       = `dir="in"`
)

// --- wire clients -----------------------------------------------------------

// ingestConn is one sequenced ingest session over TCP.
type ingestConn struct{ s *client.Session }

func dialIngest(addr string, meter uint64) (ingestConn, error) {
	s, err := client.DialSession(addr, meter, client.SessionConfig{})
	return ingestConn{s}, err
}

func (c ingestConn) append(firstT, window int64, syms []symbol) error {
	return c.s.Append(firstT, window, syms)
}

// close ends the session and returns how often its retry machinery fired.
func (c ingestConn) close() int {
	st := c.s.Stats()
	c.s.Close()
	return st.Reconnects + st.Replays + st.Retries
}

// agg is an aggregate answer with the floats kept as bits, so equality is
// bit-equality.
type agg struct {
	count         uint64
	sum, min, max uint64
}

func mkAgg(count uint64, sum, min, max float64) agg {
	return agg{count, math.Float64bits(sum), math.Float64bits(min), math.Float64bits(max)}
}

// queryConn is one query connection over TCP.
type queryConn struct {
	c *client.Client
	h client.Histogram
}

func dialQuery(addr string) (*queryConn, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &queryConn{c: c}, nil
}

func (q *queryConn) close() { q.c.Close() }

func (q *queryConn) count(meter uint64, t0, t1 int64) (uint64, error) {
	return q.c.Count(meter, t0, t1)
}

func (q *queryConn) window(meter uint64, t0, t1 int64) (agg, error) {
	a, err := q.c.Aggregate(meter, t0, t1)
	return mkAgg(a.Count, a.Sum, a.Min, a.Max), err
}

// hist returns the meter's histogram; the slice is reused by the next call.
func (q *queryConn) hist(meter uint64, t0, t1 int64) ([]uint64, error) {
	err := q.c.HistogramInto(&q.h, meter, t0, t1)
	return q.h.Counts, err
}

func (q *queryConn) fleetWindow(t0, t1 int64) (agg, error) {
	a, err := q.c.FleetAggregate(t0, t1)
	return mkAgg(a.Count, a.Sum, a.Min, a.Max), err
}

func (q *queryConn) fleetHist(t0, t1 int64) ([]uint64, error) {
	err := q.c.FleetHistogramInto(&q.h, t0, t1)
	return q.h.Counts, err
}

// --- in-process answers (oracle) ---------------------------------------------

func (s *stack) inprocCount(meter uint64, t0, t1 int64) (uint64, bool) {
	return s.qe.Count(meter, t0, t1)
}

func (s *stack) inprocWindow(meter uint64, t0, t1 int64) (agg, bool) {
	a, ok := s.qe.Aggregate(meter, t0, t1)
	return mkAgg(a.Count, a.Sum, a.Min, a.Max), ok
}

// --- in-process replays (traced pass) ----------------------------------------

// ingestTimes is one batch replayed through each ingest layer's exported
// entry point. unpack is the part of decode spent in the codec; storeAppend
// is the in-memory twin's share of what engineAppend does.
type ingestTimes struct {
	pack, decode, unpack, engineAppend, storeAppend, ackEncode time.Duration
}

// ingestReplayer owns the shadow state ingest replays run against: a shadow
// engine on its own directory in the workload's fsync mode, and an in-memory
// twin store. Each meter must be replayed from one goroutine only, the same
// serialisation a session imposes.
type ingestReplayer struct {
	shadow *storage.Engine
	twin   *server.Store
	seq    []uint64 // per meter, last seq committed to shadow and twin
}

func newIngestReplayer(dir string, shards int, fsync string, in *inputs) (*ingestReplayer, error) {
	mode, err := storage.ParseSyncMode(fsync)
	if err != nil {
		return nil, err
	}
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: shards, Sync: mode})
	if err != nil {
		return nil, err
	}
	r := &ingestReplayer{shadow: eng, twin: server.NewStore(shards), seq: make([]uint64, in.meters)}
	for m := 0; m < in.meters; m++ {
		id := uint64(m)
		if err := errors.Join(eng.StartSession(id), r.twin.StartSession(id)); err != nil {
			eng.Abandon()
			return nil, err
		}
		_, err1 := eng.PushTableSeq(id, 1, in.table(m))
		_, err2 := r.twin.PushTableSeq(id, 1, in.table(m))
		if err := errors.Join(err1, err2); err != nil {
			eng.Abandon()
			return nil, err
		}
		r.seq[m] = 1
	}
	return r, nil
}

func (r *ingestReplayer) close() { r.shadow.Abandon() }

// ingestReplay is one goroutine's scratch for replaying batches.
type ingestReplay struct {
	r     *ingestReplayer
	frame []byte
	rd    bytes.Reader
	dec   *transport.Decoder
	syms  []symbol
	ack   []byte
}

func (r *ingestReplayer) newReplay() *ingestReplay {
	p := &ingestReplay{r: r}
	p.dec = transport.NewDecoder(&p.rd)
	p.dec.TableEstablished()
	return p
}

// replay pushes one batch through pack → frame decode → shadow engine →
// twin store → ack encode, timing each call from outside.
func (p *ingestReplay) replay(meter int, firstT, window int64, syms []symbol) (ingestTimes, error) {
	var t ingestTimes
	seq := p.r.seq[meter] + 1

	// The 'D' frame exactly as client.Session.Append assembles it.
	var hdr [29]byte
	hdr[0] = transport.FrameSeqSymbol
	binary.BigEndian.PutUint64(hdr[5:13], seq)
	binary.BigEndian.PutUint64(hdr[13:21], uint64(firstT))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(window))
	p.frame = append(p.frame[:0], hdr[:]...)
	start := time.Now()
	frame, err := symbolic.AppendPack(p.frame, syms)
	t.pack = time.Since(start)
	if err != nil {
		return t, err
	}
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(frame)-5))
	p.frame = frame

	start = time.Now()
	p.syms, err = symbolic.UnpackInto(p.syms, frame[29:])
	t.unpack = time.Since(start)
	if err != nil {
		return t, err
	}

	p.rd.Reset(frame)
	start = time.Now()
	ev, err := p.dec.Next()
	t.decode = time.Since(start)
	if err != nil {
		return t, err
	}

	id := uint64(meter)
	start = time.Now()
	_, dup, err := p.r.shadow.AppendSeq(id, seq, ev.Points)
	t.engineAppend = time.Since(start)
	if err != nil || dup {
		return t, fmt.Errorf("shadow engine: dup=%v err=%v", dup, err)
	}

	start = time.Now()
	_, dup, err = p.r.twin.AppendSeq(id, seq, ev.Points)
	t.storeAppend = time.Since(start)
	if err != nil || dup {
		return t, fmt.Errorf("twin store: dup=%v err=%v", dup, err)
	}
	p.r.seq[meter] = seq

	start = time.Now()
	p.ack = transport.AppendAckFrame(p.ack[:0], seq)
	t.ackEncode = time.Since(start)
	return t, nil
}

// queryTimes is one query replayed through each query layer's exported entry
// point on the served store. engine is the query.Engine call ServeQuery
// makes; collect and kernel are the parts of it spent resolving the range
// and scanning the partially covered blocks (meter-scope queries only) —
// the batch histogram kernel, plus the histogram→aggregate fold for a window
// query, which is what the engine runs for alphabets up to 256 symbols.
type queryTimes struct {
	reqCodec, serve, engine, collect, kernel, resCodec time.Duration
	answer                                             agg      // window and fleet-window replays
	counts                                             []uint64 // histogram replays; reused
}

// queryReplay is one goroutine's scratch for replaying queries.
type queryReplay struct {
	s      *stack
	buf    []byte
	res    transport.QueryResult
	dec    transport.QueryResult
	h      query.Histogram
	views  []server.BlockView
	spans  []symbolic.PackedSpan
	counts [256]uint64
	nextID uint64
}

func (s *stack) newQueryReplay() *queryReplay { return &queryReplay{s: s} }

func (p *queryReplay) replay(kind queryKind, meter uint64, t0, t1 int64) (queryTimes, error) {
	var t queryTimes
	p.nextID++
	req := transport.QueryRequest{ID: p.nextID, Op: transport.OpAggregate, MeterID: meter, T0: t0, T1: t1}
	if kind == kindHist || kind == kindFleetHist {
		req.Op = transport.OpHistogram
	}
	req.Fleet = kind == kindFleet || kind == kindFleetHist

	start := time.Now()
	p.buf = transport.AppendQueryRequestFrame(p.buf[:0], req)
	got, err := transport.DecodeQueryRequest(p.buf[5:])
	t.reqCodec = time.Since(start)
	if err != nil || got != req {
		return t, fmt.Errorf("request codec round trip: %+v != %+v (%v)", got, req, err)
	}

	start = time.Now()
	err = p.s.qe.ServeQuery(req, &p.res)
	t.serve = time.Since(start)
	if err != nil {
		return t, err
	}

	start = time.Now()
	switch kind {
	case kindWindow:
		a, _ := p.s.qe.Aggregate(meter, t0, t1)
		t.engine = time.Since(start)
		t.answer = mkAgg(a.Count, a.Sum, a.Min, a.Max)
	case kindHist:
		_, err = p.s.qe.HistogramInto(&p.h, meter, t0, t1)
		t.engine = time.Since(start)
		t.counts = p.h.Counts
	case kindFleet:
		a := p.s.qe.FleetAggregate(t0, t1)
		t.engine = time.Since(start)
		t.answer = mkAgg(a.Count, a.Sum, a.Min, a.Max)
	case kindFleetHist:
		var h query.Histogram
		h, err = p.s.qe.FleetHistogram(t0, t1)
		t.engine = time.Since(start)
		t.counts = h.Counts
	}
	if err != nil {
		return t, err
	}

	if !req.Fleet {
		m, ok := p.s.eng.Store().Meter(meter)
		if !ok {
			return t, fmt.Errorf("meter %d missing from the store", meter)
		}
		start = time.Now()
		p.views = m.CollectRange(t0, t1, p.views[:0], func(server.BlockView) {})
		t.collect = time.Since(start)
		if len(p.views) > 0 && p.views[0].Level <= 8 {
			v0 := &p.views[0]
			p.spans = p.spans[:0]
			for i := range p.views {
				v := &p.views[i]
				if i0, i1 := overlap(v, t0, t1); i0 < i1 && (i0 > 0 || i1 < v.N) && v.Level == v0.Level {
					p.spans = append(p.spans, symbolic.PackedSpan{Payload: v.Payload, Start: i0, End: i1})
				}
			}
			start = time.Now()
			hist := p.counts[:1<<v0.Level]
			clear(hist)
			symbolic.PackedRangeHistogramBatch(hist, v0.Level, p.spans)
			if kind == kindWindow {
				symbolic.HistogramAggregate(hist, v0.Values)
			}
			t.kernel = time.Since(start)
		}
	}

	start = time.Now()
	p.buf, err = transport.AppendQueryResultFrame(p.buf[:0], &p.res)
	if err == nil {
		err = transport.DecodeQueryResponse(p.buf[0], p.buf[5:], &p.dec)
	}
	t.resCodec = time.Since(start)
	return t, err
}

// overlap is the index range of v's points inside [t0, t1): point i lives at
// FirstT + i·Stride.
func overlap(v *server.BlockView, t0, t1 int64) (int, int) {
	if v.N == 0 || t1 <= v.FirstT || t0 > v.LastT() {
		return 0, 0
	}
	if v.Stride == 0 {
		return 0, 1
	}
	ceilDiv := func(a, b int64) int {
		q := a / b
		if a%b != 0 && a > 0 {
			q++
		}
		return int(q)
	}
	i0, i1 := 0, v.N
	if t0 > v.FirstT {
		i0 = ceilDiv(t0-v.FirstT, v.Stride)
	}
	if t1 <= v.LastT() {
		i1 = ceilDiv(t1-v.FirstT, v.Stride)
	}
	if i0 >= i1 {
		return 0, 0
	}
	return i0, i1
}
