// Package client is the Go library for querying a symmeter aggregation
// server over TCP: connect, ask for compressed-domain aggregates (Count,
// Sum, Mean, Min, Max, Aggregate, Histogram) over [t0, t1) — per meter or
// fleet-wide — and get back exactly what the in-process query engine would
// have answered, as raw IEEE-754 bit patterns rather than formatted text.
//
// A Client owns one connection and reuses its request buffer, response
// decoder and histogram bins across calls, so the steady-state query path
// allocates nothing. It is not safe for concurrent use; open one Client per
// goroutine (the server answers one request at a time per connection, so
// parallel readers want parallel connections).
//
//	c, err := client.Dial(addr)
//	if err != nil { ... }
//	defer c.Close()
//	sum, n, err := c.FleetSum(t0, t1)
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"symmeter/internal/transport"
)

// Re-exported sentinels for the server's typed query errors, matched with
// errors.Is against any error this package returns.
var (
	// ErrUnknownMeter reports a per-meter query for a meter the server has
	// never seen.
	ErrUnknownMeter = transport.ErrQueryUnknownMeter
	// ErrBadRange reports a query with t0 >= t1.
	ErrBadRange = transport.ErrQueryBadRange
	// ErrMixedLevels reports a histogram over blocks whose symbol levels
	// disagree.
	ErrMixedLevels = transport.ErrQueryMixedLevels
	// ErrLevelTooFine reports a histogram at an impractically fine level.
	ErrLevelTooFine = transport.ErrQueryLevelTooFine
	// ErrDegraded reports the server refusing ingest because its storage
	// is degraded. Nothing about the refused write was stored, so it is
	// safe — and expected — to retry after a backoff (see Backoff.Retry);
	// queries keep working against the same server throughout.
	ErrDegraded = transport.ErrServerDegraded
	// ErrOverloaded reports the server refusing a batch because the shard's
	// ingest memory budget is exhausted. Nothing was stored; retryable.
	ErrOverloaded = transport.ErrServerOverloaded
	// ErrDraining reports a server in graceful shutdown refusing new
	// sessions. Retryable — against the next server instance.
	ErrDraining = transport.ErrServerDraining
	// ErrMeterBusy reports a second session for a meter whose previous
	// session is still registered. Retryable — the idle reaper frees the
	// meter once the stale session times out.
	ErrMeterBusy = transport.ErrMeterBusy
)

// Retryable reports whether err is one of the server's typed
// nothing-was-written refusals (degraded, overloaded, draining, busy) — the
// family Backoff.Retry waits out. Raw transport errors are NOT retryable
// here: without a sequenced Session the client cannot know whether the
// server committed the write before the connection died.
func Retryable(err error) bool { return transport.Retryable(err) }

// Agg is an order-insensitive aggregate over a time range, mirroring the
// engine's: Min and Max are meaningful only when Count > 0.
type Agg struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count, or NaN for an empty range.
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.Count)
}

// Histogram is a per-symbol count distribution at a single level; Counts
// has 1<<Level entries, or none when the range covers no points.
type Histogram struct {
	Level  int
	Counts []uint64
}

// Total returns the histogram mass.
func (h *Histogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Client is one query connection to an aggregation server. Zero value is
// not usable; construct with Dial or New.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	fr   *transport.FrameReader
	// nextID correlates responses; single-flight use means it simply
	// increments, but the wire protocol allows pipelining.
	nextID uint64
	// buf is the reusable request-frame assembly buffer.
	buf []byte
	// res is the reusable response decode target (its Counts array backs
	// HistogramInto on the steady state).
	res transport.QueryResult
	// timeout, when positive, bounds each request round trip.
	timeout time.Duration
	// err, once set, poisons the client: the stream position can no longer
	// be trusted (torn write, desynchronized response), so every later call
	// fails fast with it. Server-reported query errors are NOT sticky —
	// the stream stays well-framed across them.
	err error
}

// Dial connects to a server's query endpoint (either its main listener or
// a dedicated -query-addr listener).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(conn), nil
}

// New wraps an established connection.
func New(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		fr:   transport.NewFrameReader(bufio.NewReader(conn)),
	}
}

// SetTimeout bounds each subsequent request's round trip (0 disables and
// clears the deadline the last timed request left on the connection). A
// timeout poisons the client — the response may still be in flight, so the
// connection must not be reused.
func (c *Client) SetTimeout(d time.Duration) {
	c.timeout = d
	if d <= 0 && c.conn != nil {
		if err := c.conn.SetDeadline(time.Time{}); err != nil {
			c.fail(err)
		}
	}
}

// Close sends the end-of-stream frame (best effort) and closes the
// connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	if c.err == nil {
		c.buf = append(c.buf[:0], 'E', 0, 0, 0, 0)
		c.bw.Write(c.buf)
		c.bw.Flush()
	}
	err := c.conn.Close()
	c.conn = nil
	if c.err == nil {
		c.err = errors.New("client: closed")
	}
	return err
}

// fail poisons the client and returns the sticky error.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// do runs one request round trip into c.res. Returned *transport.QueryError
// values are recoverable server verdicts; any other error is sticky.
func (c *Client) do(op byte, fleet bool, meterID uint64, t0, t1 int64) error {
	if c.err != nil {
		return c.err
	}
	c.nextID++
	req := transport.QueryRequest{
		ID:      c.nextID,
		Op:      op,
		Fleet:   fleet,
		MeterID: meterID,
		T0:      t0,
		T1:      t1,
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return c.fail(err)
		}
	}
	c.buf = transport.AppendQueryRequestFrame(c.buf[:0], req)
	if _, err := c.bw.Write(c.buf); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	typ, payload, err := c.fr.Next()
	if err != nil {
		return c.fail(fmt.Errorf("client: reading response: %w", err))
	}
	derr := transport.DecodeQueryResponse(typ, payload, &c.res)
	if c.res.ID != req.ID {
		// Single-flight clients see responses strictly in request order; a
		// mismatched id means the stream is desynchronized beyond repair.
		return c.fail(fmt.Errorf("client: response id %d for request %d: stream desynchronized", c.res.ID, req.ID))
	}
	if derr != nil {
		var qe *transport.QueryError
		if errors.As(derr, &qe) {
			return derr // server verdict: recoverable, stream still framed
		}
		return c.fail(derr)
	}
	if c.res.Op != op {
		return c.fail(fmt.Errorf("client: response op %#x for request op %#x", c.res.Op, op))
	}
	return nil
}

// Count returns the number of stored points for the meter in [t0, t1).
func (c *Client) Count(meterID uint64, t0, t1 int64) (uint64, error) {
	if err := c.do(transport.OpCount, false, meterID, t0, t1); err != nil {
		return 0, err
	}
	return c.res.Count, nil
}

// Sum returns the sum of reconstruction values and the point count for the
// meter in [t0, t1).
func (c *Client) Sum(meterID uint64, t0, t1 int64) (float64, uint64, error) {
	if err := c.do(transport.OpSum, false, meterID, t0, t1); err != nil {
		return 0, 0, err
	}
	return c.res.Sum, c.res.Count, nil
}

// Mean returns the mean reconstruction value in [t0, t1); NaN when the
// range holds no points.
func (c *Client) Mean(meterID uint64, t0, t1 int64) (float64, error) {
	if err := c.do(transport.OpMean, false, meterID, t0, t1); err != nil {
		return 0, err
	}
	return c.res.Value, nil
}

// Min returns the smallest reconstruction value in [t0, t1); ok is false
// when the range holds no points.
func (c *Client) Min(meterID uint64, t0, t1 int64) (float64, bool, error) {
	if err := c.do(transport.OpMin, false, meterID, t0, t1); err != nil {
		return 0, false, err
	}
	return c.res.Value, c.res.Count > 0, nil
}

// Max is Min's counterpart.
func (c *Client) Max(meterID uint64, t0, t1 int64) (float64, bool, error) {
	if err := c.do(transport.OpMax, false, meterID, t0, t1); err != nil {
		return 0, false, err
	}
	return c.res.Value, c.res.Count > 0, nil
}

// Aggregate returns count/sum/min/max for the meter in [t0, t1) in one
// round trip.
func (c *Client) Aggregate(meterID uint64, t0, t1 int64) (Agg, error) {
	if err := c.do(transport.OpAggregate, false, meterID, t0, t1); err != nil {
		return Agg{}, err
	}
	return Agg{Count: c.res.Count, Sum: c.res.Sum, Min: c.res.Min, Max: c.res.Max}, nil
}

// HistogramInto fills h with the meter's per-symbol distribution over
// [t0, t1), reusing h.Counts' capacity — the zero-allocation form for
// callers that poll.
func (c *Client) HistogramInto(h *Histogram, meterID uint64, t0, t1 int64) error {
	if err := c.do(transport.OpHistogram, false, meterID, t0, t1); err != nil {
		return err
	}
	return c.copyHistogram(h)
}

// Histogram returns the meter's per-symbol distribution over [t0, t1).
func (c *Client) Histogram(meterID uint64, t0, t1 int64) (Histogram, error) {
	var h Histogram
	err := c.HistogramInto(&h, meterID, t0, t1)
	return h, err
}

// FleetCount returns the fleet-wide point count over [t0, t1).
func (c *Client) FleetCount(t0, t1 int64) (uint64, error) {
	if err := c.do(transport.OpCount, true, 0, t0, t1); err != nil {
		return 0, err
	}
	return c.res.Count, nil
}

// FleetSum returns the fleet-wide sum and point count over [t0, t1).
func (c *Client) FleetSum(t0, t1 int64) (float64, uint64, error) {
	if err := c.do(transport.OpSum, true, 0, t0, t1); err != nil {
		return 0, 0, err
	}
	return c.res.Sum, c.res.Count, nil
}

// FleetMean returns the fleet-wide mean over [t0, t1); NaN when empty.
func (c *Client) FleetMean(t0, t1 int64) (float64, error) {
	if err := c.do(transport.OpMean, true, 0, t0, t1); err != nil {
		return 0, err
	}
	return c.res.Value, nil
}

// FleetAggregate returns fleet-wide count/sum/min/max over [t0, t1).
func (c *Client) FleetAggregate(t0, t1 int64) (Agg, error) {
	if err := c.do(transport.OpAggregate, true, 0, t0, t1); err != nil {
		return Agg{}, err
	}
	return Agg{Count: c.res.Count, Sum: c.res.Sum, Min: c.res.Min, Max: c.res.Max}, nil
}

// FleetHistogramInto fills h with the fleet-wide per-symbol distribution
// over [t0, t1), reusing h.Counts' capacity.
func (c *Client) FleetHistogramInto(h *Histogram, t0, t1 int64) error {
	if err := c.do(transport.OpHistogram, true, 0, t0, t1); err != nil {
		return err
	}
	return c.copyHistogram(h)
}

// FleetHistogram returns the fleet-wide per-symbol distribution.
func (c *Client) FleetHistogram(t0, t1 int64) (Histogram, error) {
	var h Histogram
	err := c.FleetHistogramInto(&h, t0, t1)
	return h, err
}

// copyHistogram moves the decoded bins out of the reusable response into
// the caller's histogram, reusing its capacity.
func (c *Client) copyHistogram(h *Histogram) error {
	h.Level = c.res.Level
	if cap(h.Counts) < len(c.res.Counts) {
		h.Counts = make([]uint64, len(c.res.Counts))
	}
	h.Counts = h.Counts[:len(c.res.Counts)]
	copy(h.Counts, c.res.Counts)
	return nil
}
