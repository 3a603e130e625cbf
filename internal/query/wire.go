package query

import (
	"errors"
	"fmt"

	"symmeter/internal/transport"
)

// ServeQuery executes one decoded wire request against the engine and fills
// res — the adapter the server's query sessions run requests through. It
// implements server.QueryHandler.
//
// The method reuses res (including the Counts backing array) and allocates
// nothing on the steady state for per-meter ops; failures come back as
// *transport.QueryError so the session layer can answer with a typed 'X'
// frame. Histograms have their own path; every scalar op is shaped from one
// Agg: Count or FleetCount for OpCount, which read no payload, and otherwise
// Aggregate per meter and FleetAggregate fleet-wide. Per-meter floats are
// therefore bit-identical to the in-process calls, which run the same fold;
// fleet-wide floats are merged from worker partials whose meter order is
// scheduling-dependent, exactly as FleetAggregate's own are.
func (e *Engine) ServeQuery(req transport.QueryRequest, res *transport.QueryResult) error {
	if req.T0 >= req.T1 {
		return &transport.QueryError{
			Code: transport.QErrBadRange,
			Msg:  fmt.Sprintf("empty or inverted range [%d, %d)", req.T0, req.T1),
		}
	}
	if req.Op < transport.OpCount || req.Op > transport.OpHistogram {
		return &transport.QueryError{
			Code: transport.QErrBadRequest,
			Msg:  fmt.Sprintf("unknown op %#x", req.Op),
		}
	}
	*res = transport.QueryResult{ID: req.ID, Op: req.Op, Counts: res.Counts[:0]}
	var a Agg
	switch {
	case req.Op == transport.OpHistogram:
		return e.serveHistogram(req, res)
	case req.Op == transport.OpCount && req.Fleet:
		a.Count = e.FleetCount(req.T0, req.T1)
	case req.Op == transport.OpCount:
		n, ok := e.Count(req.MeterID, req.T0, req.T1)
		if !ok {
			return unknownMeter(req.MeterID)
		}
		a.Count = n
	case req.Fleet:
		a = e.FleetAggregate(req.T0, req.T1)
	default:
		var ok bool
		if a, ok = e.Aggregate(req.MeterID, req.T0, req.T1); !ok {
			return unknownMeter(req.MeterID)
		}
	}
	res.Count = a.Count
	switch req.Op {
	case transport.OpSum:
		res.Sum = a.Sum
	case transport.OpMean:
		res.Value = a.Mean()
	case transport.OpMin:
		res.Value = a.Min
	case transport.OpMax:
		res.Value = a.Max
	case transport.OpAggregate:
		res.Sum, res.Min, res.Max = a.Sum, a.Min, a.Max
	}
	return nil
}

// serveHistogram fills res with the request's distribution, per meter or
// fleet-wide, into res.Counts' reused backing array.
func (e *Engine) serveHistogram(req transport.QueryRequest, res *transport.QueryResult) error {
	h := Histogram{Counts: res.Counts}
	ok, err := true, error(nil)
	if req.Fleet {
		err = e.FleetHistogramInto(&h, req.T0, req.T1)
	} else {
		ok, err = e.HistogramInto(&h, req.MeterID, req.T0, req.T1)
	}
	res.Level, res.Counts = h.Level, h.Counts
	if !ok {
		return unknownMeter(req.MeterID)
	}
	if err != nil {
		res.Counts = res.Counts[:0]
		return histogramError(err)
	}
	return nil
}

func unknownMeter(id uint64) error {
	return &transport.QueryError{
		Code: transport.QErrUnknownMeter,
		Msg:  fmt.Sprintf("meter %d not in store", id),
	}
}

// histogramError maps the engine's histogram failures onto wire error codes.
func histogramError(err error) error {
	code := transport.QErrInternal
	switch {
	case errors.Is(err, ErrMixedLevels):
		code = transport.QErrMixedLevels
	case errors.Is(err, ErrLevelTooFine):
		code = transport.QErrLevelTooFine
	}
	return &transport.QueryError{Code: code, Msg: err.Error()}
}
