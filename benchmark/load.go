package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// batchesPerSession is how many batches a meter sends before it hangs up:
// one session open per 32 acked batches.
const batchesPerSession = 32

// recentDays is the span live-ingest workloads query: a one-day window has
// 30 days of slack inside it, a 30-day range one — so every histogram and
// roughly one window in six reaches the meter's live tail block.
const recentDays = 31

// fleet is the load generator's view of the meters: what to send next and
// how much of it the server has acknowledged.
type fleet struct {
	in   *inputs
	head []atomic.Int64 // days committed per meter: preloaded + acked
}

func newFleet(in *inputs, preloadDays int) *fleet {
	f := &fleet{in: in, head: make([]atomic.Int64, in.meters)}
	for m := range f.head {
		f.head[m].Store(int64(preloadDays))
	}
	return f
}

// limit stops a caller: at the deadline, or after maxOps ops when positive.
type limit struct {
	deadline time.Time
	maxOps   int
}

// ingestSample and querySample are one traced op: the root interval around
// the pkg/client call and the in-process replay of the same op.
type ingestSample struct {
	start, end int64 // ns since the phase started
	t          ingestTimes
}

type querySample struct {
	start, end int64
	kind       queryKind
	t          queryTimes
}

// failures counts ops that failed, were refused or answered wrongly, and
// keeps the first few reasons for the report.
type failures struct {
	n       int64
	reasons []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	f.reasons = append(f.reasons, o.reasons...)
	if len(f.reasons) > 5 {
		f.reasons = f.reasons[:5]
	}
}

// ingestCaller is one closed-loop ingest client: it walks its share of the
// fleet, one session per visit, and waits for every ack.
type ingestCaller struct {
	f     *fleet
	addr  string
	share []int
	pos   int
	// replay, when set, traces every batch.
	replay *ingestReplay
}

type ingestOut struct {
	acks     sample
	opens    sample
	batches  int64
	sessions int64
	retries  int
	elapsed  time.Duration
	fail     failures
	traced   []ingestSample
}

func (o *ingestOut) merge(p *ingestOut) {
	o.acks.merge(&p.acks)
	o.opens.merge(&p.opens)
	o.batches += p.batches
	o.sessions += p.sessions
	o.retries += p.retries
	o.elapsed = max(o.elapsed, p.elapsed)
	o.fail.merge(p.fail)
	o.traced = append(o.traced, p.traced...)
}

func (c *ingestCaller) run(epoch time.Time, lim limit) ingestOut {
	var out ingestOut
	in := c.f.in
	done := false
	for !done {
		m := c.share[c.pos%len(c.share)]
		c.pos++
		t0 := time.Now()
		conn, err := dialIngest(c.addr, uint64(m))
		t1 := time.Now()
		out.sessions++
		if err != nil {
			out.fail.add("meter %d: open session: %v", m, err)
			break
		}
		out.opens.add(int64(t1.Sub(epoch)), int64(t1.Sub(t0)))
		for i := 0; i < batchesPerSession && !done; i++ {
			day := int(c.f.head[m].Load())
			syms := in.day(m, day)
			firstT := dayFirstT(day, in.window)
			t0 := time.Now()
			err := conn.append(firstT, in.window, syms)
			t1 := time.Now()
			if err != nil {
				out.batches++
				out.fail.add("meter %d day %d: append: %v", m, day, err)
				done = true
				break
			}
			c.f.head[m].Add(1)
			out.batches++
			out.acks.add(int64(t1.Sub(epoch)), int64(t1.Sub(t0)))
			if c.replay != nil {
				rt, err := c.replay.replay(m, firstT, in.window, syms)
				if err != nil {
					out.fail.add("meter %d day %d: replay: %v", m, day, err)
					done = true
					break
				}
				out.traced = append(out.traced, ingestSample{int64(t0.Sub(epoch)), int64(t1.Sub(epoch)), rt})
				t1 = time.Now()
			}
			done = !t1.Before(lim.deadline) || (lim.maxOps > 0 && int(out.batches) >= lim.maxOps)
		}
		out.retries += conn.close()
	}
	out.elapsed = time.Since(epoch)
	return out
}

// queryCaller is one closed-loop dashboard client on its own connection.
type queryCaller struct {
	f    *fleet
	gen  *queryGen
	conn *queryConn
	// recent restricts ranges to each meter's most recent days; false asks
	// about the whole history.
	recent bool
	// replay, when set, traces every query; verify also holds the wire
	// answer to the replay's (only sound while nothing is being ingested).
	replay *queryReplay
	verify bool
}

type queryOut struct {
	lat     [numKinds]sample
	elapsed time.Duration
	fail    failures
	traced  []querySample
}

func (o *queryOut) merge(p *queryOut) {
	for k := range o.lat {
		o.lat[k].merge(&p.lat[k])
	}
	o.elapsed = max(o.elapsed, p.elapsed)
	o.fail.merge(p.fail)
	o.traced = append(o.traced, p.traced...)
}

func (o *queryOut) total() int {
	n := 0
	for k := range o.lat {
		n += o.lat[k].n()
	}
	return n
}

// all is every query latency of the mix in one sample.
func (o *queryOut) all() *sample {
	var s sample
	for k := range o.lat {
		s.merge(&o.lat[k])
	}
	return &s
}

func (c *queryCaller) run(epoch time.Time, lim limit) queryOut {
	var out queryOut
	for n := 0; ; n++ {
		op := c.gen.next()
		hi := int(c.f.head[op.meter].Load())
		lo := 0
		if c.recent {
			lo = max(0, hi-recentDays)
		}
		t0, t1 := op.resolve(lo, hi)
		var (
			a      agg
			counts []uint64
			err    error
		)
		start := time.Now()
		switch op.kind {
		case kindWindow:
			a, err = c.conn.window(uint64(op.meter), t0, t1)
		case kindHist:
			counts, err = c.conn.hist(uint64(op.meter), t0, t1)
		case kindFleet:
			a, err = c.conn.fleetWindow(t0, t1)
		case kindFleetHist:
			counts, err = c.conn.fleetHist(t0, t1)
		}
		end := time.Now()
		switch {
		case err != nil:
			out.fail.add("%s query meter %d [%d,%d): %v", kindNames[op.kind], op.meter, t0, t1, err)
		case a.count == 0 && len(counts) == 0:
			out.fail.add("%s query meter %d [%d,%d): empty answer inside stored history", kindNames[op.kind], op.meter, t0, t1)
		}
		out.lat[op.kind].add(int64(end.Sub(epoch)), int64(end.Sub(start)))
		if err != nil {
			break // the connection is poisoned
		}
		if c.replay != nil {
			rt, err := c.replay.replay(op.kind, uint64(op.meter), t0, t1)
			switch {
			case err != nil:
				out.fail.add("%s query meter %d [%d,%d): replay: %v", kindNames[op.kind], op.meter, t0, t1, err)
			case c.verify && !sameAnswer(op.kind, a, counts, &rt):
				out.fail.add("%s query meter %d [%d,%d): wire answer differs from in-process answer", kindNames[op.kind], op.meter, t0, t1)
			}
			out.traced = append(out.traced, querySample{int64(start.Sub(epoch)), int64(end.Sub(epoch)), op.kind, rt})
			end = time.Now()
		}
		if !end.Before(lim.deadline) || (lim.maxOps > 0 && n+1 >= lim.maxOps) {
			break
		}
	}
	out.elapsed = time.Since(epoch)
	return out
}

// sameAnswer holds a wire answer to its in-process replay. Meter answers and
// every count are bit-equal by construction; fleet float sums are merged
// from worker partials in scheduling order on both sides, so only their
// counts and extremes are comparable.
func sameAnswer(kind queryKind, a agg, counts []uint64, rt *queryTimes) bool {
	switch kind {
	case kindWindow:
		return a == rt.answer
	case kindFleet:
		return a.count == rt.answer.count && a.min == rt.answer.min && a.max == rt.answer.max
	}
	return slices.Equal(counts, rt.counts)
}
