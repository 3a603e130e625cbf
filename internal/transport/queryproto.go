// Query frame family: the request/response half of the wire protocol.
//
// The ingest frames ('H','T','S','E') let a meter talk *to* the server; the
// frames here let any network peer ask questions *of* it — the paper's
// aggregation server finally answers aggregate queries over the wire instead
// of only in-process. Three frame types extend the same length-prefixed
// framing:
//
//	'Q' = query request: version(1) | op(1) | flags(1) | id(uint64 BE) |
//	      meterID(uint64 BE) | t0(int64 BE) | t1(int64 BE)
//	'R' = query result: id(uint64 BE) | op(1) | op-specific body (below)
//	'X' = query error: id(uint64 BE) | code(1) | message (UTF-8)
//
// A connection whose first frame is 'Q' is a query session: the server
// executes each request against the compressed-domain engine and answers
// with exactly one 'R' or 'X' carrying the request's id. Requests may be
// pipelined; responses may arrive in any order (the id is the correlator).
// 'E' ends a query session just as it ends an ingest stream.
//
// Result bodies (all integers big-endian, all floats as IEEE-754 bit
// patterns via math.Float64bits — responses are bit-exact, never formatted):
//
//	OpCount               count(8)
//	OpSum                 count(8) | sum(8)
//	OpMean                count(8) | mean(8)       mean is NaN when count=0
//	OpMin / OpMax         count(8) | value(8)      value valid when count>0
//	OpAggregate           count(8) | sum(8) | min(8) | max(8)
//	OpHistogram           level(1) | bins(uint32 BE) | count(8)×bins
//
// The flags field selects scope: bit 0 set = fleet-wide (meterID ignored),
// clear = the single meter in meterID. Unknown flag bits are rejected, not
// ignored — a future protocol revision must bump QueryProtocolVersion.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Query frame types as they appear on the wire.
const (
	FrameQuery      byte = 'Q'
	FrameResult     byte = 'R'
	FrameQueryError byte = 'X'
)

// QueryProtocolVersion is carried in every request frame; a server refuses
// other versions with a QErrVersion error response rather than guessing at
// request semantics.
const QueryProtocolVersion byte = 1

// Query operations. The zero value is invalid so a zeroed request cannot
// silently mean anything.
const (
	OpCount byte = iota + 1
	OpSum
	OpMean
	OpMin
	OpMax
	OpAggregate
	OpHistogram

	opEnd // one past the last valid op
)

// queryFlagFleet marks a fleet-wide request (meterID ignored).
const queryFlagFleet byte = 1 << 0

// queryRequestLen is the exact payload size of a 'Q' frame.
const queryRequestLen = 35

// maxWireHistLevel bounds the histogram level a response may claim, against
// corrupted or hostile level bytes sizing the bin allocation (2^20 bins =
// 8 MiB, still under MaxFrame; real levels top out at 12).
const maxWireHistLevel = 20

// Typed query-protocol errors, distinguishable with errors.Is. The first
// group reports malformed wire data; the second mirrors the server-side
// error codes so a client can match a QueryError without knowing codes.
var (
	// ErrBadQueryFrame reports a structurally malformed query request or
	// response payload.
	ErrBadQueryFrame = errors.New("transport: malformed query frame")
	// ErrQueryVersionMismatch reports a request from an incompatible query
	// protocol version.
	ErrQueryVersionMismatch = errors.New("transport: query protocol version mismatch")
	// ErrUnknownOp reports a request whose op byte is outside the alphabet.
	ErrUnknownOp = errors.New("transport: unknown query op")

	// ErrQueryBadRange reports a request with t0 >= t1 — the half-open range
	// is empty or inverted, which is a caller bug, not an empty result.
	ErrQueryBadRange = errors.New("transport: query range is empty or inverted")
	// ErrQueryUnknownMeter reports a per-meter query for a meter the store
	// has never seen.
	ErrQueryUnknownMeter = errors.New("transport: query for unknown meter")
	// ErrQueryMixedLevels reports a histogram over blocks whose symbol
	// levels disagree.
	ErrQueryMixedLevels = errors.New("transport: histogram over mixed symbol levels")
	// ErrQueryLevelTooFine reports a histogram at an impractically fine
	// symbol level.
	ErrQueryLevelTooFine = errors.New("transport: histogram level too fine")
	// ErrServerDegraded reports a server refusing to accept writes because
	// its durability layer is degraded: queries still work, ingest is
	// refused until the server heals. Clients should back off and retry —
	// nothing about the refused batch was written.
	ErrServerDegraded = errors.New("transport: server storage degraded, ingest refused")
	// ErrServerOverloaded reports an admission-control refusal: the shard's
	// in-flight ingest budget is exhausted. Retryable — nothing about the
	// refused batch was written, and the budget frees as in-flight work
	// drains.
	ErrServerOverloaded = errors.New("transport: server overloaded, ingest refused")
	// ErrServerDraining reports a server refusing new sessions because it
	// is shutting down gracefully. Retryable — a rolling restart looks like
	// backpressure, and a peer (or its replacement) comes back.
	ErrServerDraining = errors.New("transport: server draining, session refused")
	// ErrMeterBusy reports a session refused because the meter already has
	// an active session — the reconnect race, where the server has not yet
	// reaped the old connection. Retryable: the stale session is reaped by
	// its read failing or by the idle timeout.
	ErrMeterBusy = errors.New("transport: meter already has an active session")
)

// Error codes carried in 'X' frames.
const (
	QErrBadRequest   byte = 1 // malformed or unsupported request
	QErrVersion      byte = 2 // query protocol version mismatch
	QErrBadRange     byte = 3 // t0 >= t1
	QErrUnknownMeter byte = 4
	QErrMixedLevels  byte = 5
	QErrLevelTooFine byte = 6
	QErrInternal     byte = 7 // server-side failure outside the caller's control
	// VerdictDegraded reports the server's storage is degraded and the
	// operation (an ingest session, typically) was refused. Unlike the
	// QErr* codes it can arrive on an ingest connection too — the one 'X'
	// frame the legacy ingest protocol emits, so a sensor learns *why* its
	// stream ended instead of seeing a bare hangup. In a sequenced session
	// it arrives per batch (id = refused seq) and the session survives.
	VerdictDegraded byte = 8
	// VerdictOverloaded reports admission control refusing the operation:
	// the shard's in-flight ingest budget is exhausted. Retryable, distinct
	// from VerdictDegraded — the server is healthy, just saturated.
	VerdictOverloaded byte = 9
	// VerdictDraining reports a graceful shutdown refusing new sessions
	// (ingest handshakes and query requests alike). Retryable.
	VerdictDraining byte = 10
	// VerdictBusy reports an ingest handshake refused because the meter
	// already has an active session — the reconnect race. Retryable.
	VerdictBusy byte = 11
)

// QueryError is a server-reported query failure: the typed error response
// decoded from an 'X' frame (client side) or the value a query handler
// returns to pick the response code (server side). It matches the sentinel
// errors above through errors.Is.
type QueryError struct {
	Code byte
	Msg  string
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("query error (code %d): %s", e.Code, e.Msg)
}

// Is maps codes onto the package's sentinel errors so callers write
// errors.Is(err, transport.ErrQueryUnknownMeter) instead of switching on
// code bytes.
func (e *QueryError) Is(target error) bool {
	switch target {
	case ErrQueryBadRange:
		return e.Code == QErrBadRange
	case ErrQueryUnknownMeter:
		return e.Code == QErrUnknownMeter
	case ErrQueryMixedLevels:
		return e.Code == QErrMixedLevels
	case ErrQueryLevelTooFine:
		return e.Code == QErrLevelTooFine
	case ErrQueryVersionMismatch:
		return e.Code == QErrVersion
	case ErrUnknownOp, ErrBadQueryFrame:
		return e.Code == QErrBadRequest
	case ErrServerDegraded:
		return e.Code == VerdictDegraded
	case ErrServerOverloaded:
		return e.Code == VerdictOverloaded
	case ErrServerDraining:
		return e.Code == VerdictDraining
	case ErrMeterBusy:
		return e.Code == VerdictBusy
	}
	return false
}

// Retryable reports whether err is one of the typed "nothing was written,
// try again later" refusals — degraded storage, overload admission control,
// graceful drain, or the reconnect busy race. Raw transport errors are NOT
// retryable through this predicate: after one, only a sequenced session
// (which learns the committed high-water mark on re-handshake) can retry
// without risking duplication.
func Retryable(err error) bool {
	return errors.Is(err, ErrServerDegraded) || errors.Is(err, ErrServerOverloaded) ||
		errors.Is(err, ErrServerDraining) || errors.Is(err, ErrMeterBusy)
}

// QueryErrorCode flattens any error into an 'X'-frame code and message: a
// *QueryError passes through, everything else is an internal failure.
func QueryErrorCode(err error) (byte, string) {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.Code, qe.Msg
	}
	return QErrInternal, err.Error()
}

// QueryRequest is one decoded 'Q' frame.
type QueryRequest struct {
	// ID correlates the response; the server echoes it verbatim. A server
	// answers one connection's requests one at a time, in request order;
	// pipelining clients still choose unique IDs per in-flight request.
	ID uint64
	// Op is the aggregate to compute (OpCount … OpHistogram).
	Op byte
	// Fleet selects fleet-wide scope; MeterID is ignored when set.
	Fleet bool
	// MeterID is the queried meter for per-meter scope.
	MeterID uint64
	// T0, T1 bound the half-open query range [T0, T1).
	T0, T1 int64
}

// AppendQueryRequestFrame appends the complete 'Q' frame (header included)
// for req to buf and returns the extended slice — one buffer, one Write,
// zero allocations once buf has capacity.
func AppendQueryRequestFrame(buf []byte, req QueryRequest) []byte {
	var p [5 + queryRequestLen]byte
	p[0] = FrameQuery
	binary.BigEndian.PutUint32(p[1:5], queryRequestLen)
	p[5] = QueryProtocolVersion
	p[6] = req.Op
	if req.Fleet {
		p[7] = queryFlagFleet
	}
	binary.BigEndian.PutUint64(p[8:16], req.ID)
	binary.BigEndian.PutUint64(p[16:24], req.MeterID)
	binary.BigEndian.PutUint64(p[24:32], uint64(req.T0))
	binary.BigEndian.PutUint64(p[32:40], uint64(req.T1))
	return append(buf, p[:]...)
}

// DecodeQueryRequest decodes a 'Q' frame payload. On error, the returned
// request still carries the ID when the payload was long enough to hold one,
// so the server can address its error response to the right request.
func DecodeQueryRequest(payload []byte) (QueryRequest, error) {
	var req QueryRequest
	if len(payload) >= 11 {
		req.ID = binary.BigEndian.Uint64(payload[3:11])
	}
	if len(payload) != queryRequestLen {
		return req, fmt.Errorf("%w: request payload of %d bytes, want %d", ErrBadQueryFrame, len(payload), queryRequestLen)
	}
	if v := payload[0]; v != QueryProtocolVersion {
		return req, fmt.Errorf("%w: peer speaks v%d, server speaks v%d", ErrQueryVersionMismatch, v, QueryProtocolVersion)
	}
	req.Op = payload[1]
	if req.Op == 0 || req.Op >= opEnd {
		return req, fmt.Errorf("%w: %#x", ErrUnknownOp, req.Op)
	}
	flags := payload[2]
	if flags&^queryFlagFleet != 0 {
		return req, fmt.Errorf("%w: unknown flag bits %#x", ErrBadQueryFrame, flags&^queryFlagFleet)
	}
	req.Fleet = flags&queryFlagFleet != 0
	req.MeterID = binary.BigEndian.Uint64(payload[11:19])
	req.T0 = int64(binary.BigEndian.Uint64(payload[19:27]))
	req.T1 = int64(binary.BigEndian.Uint64(payload[27:35]))
	return req, nil
}

// QueryResult is one decoded 'R' frame: the union of every op's result
// fields, with only the fields of its Op populated. The struct (including
// the Counts backing array) is reused across decodes, which is what makes
// the client's steady-state response path allocation-free.
type QueryResult struct {
	ID uint64
	Op byte
	// Count is set for every op except OpHistogram (whose mass is the bin
	// total).
	Count uint64
	// Value carries OpMean's mean and OpMin/OpMax's extreme; meaningful only
	// when Count > 0 (except Mean, which is NaN for an empty range).
	Value float64
	// Sum is set for OpSum and OpAggregate.
	Sum float64
	// Min and Max are set for OpAggregate.
	Min, Max float64
	// Level and Counts are set for OpHistogram; Counts has 1<<Level entries,
	// or none when the range covers no points.
	Level  int
	Counts []uint64
}

// AppendQueryResultFrame appends the complete 'R' frame for res to buf.
// res.Op must be a valid decoded op; anything else is a programming error
// reported loudly rather than put on the wire.
func AppendQueryResultFrame(buf []byte, res *QueryResult) ([]byte, error) {
	start := len(buf)
	var hdr [14]byte
	hdr[0] = FrameResult
	binary.BigEndian.PutUint64(hdr[5:13], res.ID)
	hdr[13] = res.Op
	buf = append(buf, hdr[:]...)
	switch res.Op {
	case OpCount:
		buf = binary.BigEndian.AppendUint64(buf, res.Count)
	case OpSum:
		buf = binary.BigEndian.AppendUint64(buf, res.Count)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(res.Sum))
	case OpMean, OpMin, OpMax:
		buf = binary.BigEndian.AppendUint64(buf, res.Count)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(res.Value))
	case OpAggregate:
		buf = binary.BigEndian.AppendUint64(buf, res.Count)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(res.Sum))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(res.Min))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(res.Max))
	case OpHistogram:
		if res.Level < 0 || res.Level > maxWireHistLevel {
			return buf[:start], fmt.Errorf("transport: histogram level %d not encodable", res.Level)
		}
		if n := len(res.Counts); n != 0 && n != 1<<res.Level {
			return buf[:start], fmt.Errorf("transport: histogram with %d bins at level %d", n, res.Level)
		}
		buf = append(buf, byte(res.Level))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(res.Counts)))
		for _, c := range res.Counts {
			buf = binary.BigEndian.AppendUint64(buf, c)
		}
	default:
		return buf[:start], fmt.Errorf("%w: %#x", ErrUnknownOp, res.Op)
	}
	binary.BigEndian.PutUint32(buf[start+1:start+5], uint32(len(buf)-start-5))
	return buf, nil
}

// AppendQueryErrorFrame appends the complete 'X' frame reporting code/msg
// for the request identified by id.
func AppendQueryErrorFrame(buf []byte, id uint64, code byte, msg string) []byte {
	var hdr [14]byte
	hdr[0] = FrameQueryError
	binary.BigEndian.PutUint32(hdr[1:5], uint32(9+len(msg)))
	binary.BigEndian.PutUint64(hdr[5:13], id)
	hdr[13] = code
	buf = append(buf, hdr[:]...)
	return append(buf, msg...)
}

// DecodeQueryResponse decodes one response frame ('R' or 'X') into res,
// reusing res.Counts' capacity. An 'X' frame decodes into a *QueryError
// return value (res.ID still carries the correlator); any other frame type
// is ErrBadQueryFrame.
func DecodeQueryResponse(typ byte, payload []byte, res *QueryResult) error {
	if len(payload) < 9 {
		return fmt.Errorf("%w: response payload of %d bytes", ErrBadQueryFrame, len(payload))
	}
	res.ID = binary.BigEndian.Uint64(payload[0:8])
	res.Count, res.Value, res.Sum, res.Min, res.Max = 0, 0, 0, 0, 0
	res.Level = 0
	res.Counts = res.Counts[:0]
	if typ == FrameQueryError {
		return &QueryError{Code: payload[8], Msg: string(payload[9:])}
	}
	if typ != FrameResult {
		return fmt.Errorf("%w: frame type %#x is not a query response", ErrBadQueryFrame, typ)
	}
	res.Op = payload[8]
	body := payload[9:]
	need := func(n int) error {
		if len(body) != n {
			return fmt.Errorf("%w: op %#x body of %d bytes, want %d", ErrBadQueryFrame, res.Op, len(body), n)
		}
		return nil
	}
	switch res.Op {
	case OpCount:
		if err := need(8); err != nil {
			return err
		}
		res.Count = binary.BigEndian.Uint64(body[0:8])
	case OpSum:
		if err := need(16); err != nil {
			return err
		}
		res.Count = binary.BigEndian.Uint64(body[0:8])
		res.Sum = math.Float64frombits(binary.BigEndian.Uint64(body[8:16]))
	case OpMean, OpMin, OpMax:
		if err := need(16); err != nil {
			return err
		}
		res.Count = binary.BigEndian.Uint64(body[0:8])
		res.Value = math.Float64frombits(binary.BigEndian.Uint64(body[8:16]))
	case OpAggregate:
		if err := need(32); err != nil {
			return err
		}
		res.Count = binary.BigEndian.Uint64(body[0:8])
		res.Sum = math.Float64frombits(binary.BigEndian.Uint64(body[8:16]))
		res.Min = math.Float64frombits(binary.BigEndian.Uint64(body[16:24]))
		res.Max = math.Float64frombits(binary.BigEndian.Uint64(body[24:32]))
	case OpHistogram:
		if len(body) < 5 {
			return fmt.Errorf("%w: truncated histogram body", ErrBadQueryFrame)
		}
		level := int(body[0])
		bins := int(binary.BigEndian.Uint32(body[1:5]))
		if level > maxWireHistLevel || (bins != 0 && bins != 1<<level) {
			return fmt.Errorf("%w: histogram claims %d bins at level %d", ErrBadQueryFrame, bins, level)
		}
		if len(body) != 5+8*bins {
			return fmt.Errorf("%w: histogram body of %d bytes, want %d", ErrBadQueryFrame, len(body), 5+8*bins)
		}
		res.Level = level
		if cap(res.Counts) < bins {
			res.Counts = make([]uint64, bins)
		}
		res.Counts = res.Counts[:bins]
		for i := range res.Counts {
			res.Counts[i] = binary.BigEndian.Uint64(body[5+8*i:])
		}
	default:
		return fmt.Errorf("%w: %#x in response", ErrUnknownOp, res.Op)
	}
	return nil
}

// FrameReader incrementally reads raw frames with a reusable payload buffer —
// the shared low-level loop under both the ingest Decoder and the query
// session paths (server request loop, client response loop). The returned
// payload aliases the reader's scratch buffer and is valid only until the
// next call.
type FrameReader struct {
	r io.Reader
	// hdr is a field so the slice passed to Read does not force a heap
	// allocation per frame.
	hdr     [5]byte
	payload []byte
	// fm, when set, counts every successfully decoded frame by type
	// (SetMetrics); nil costs one branch.
	fm *FrameMetrics
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame. It returns io.EOF only for a clean stream end
// between frames; a torn header or payload surfaces as io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err // io.EOF for clean end, ErrUnexpectedEOF for torn header
	}
	n := binary.BigEndian.Uint32(fr.hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	if cap(fr.payload) < int(n) {
		fr.payload = make([]byte, n)
	}
	payload = fr.payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("transport: truncated frame payload: %w", err)
	}
	fr.fm.Observe(fr.hdr[0], int(n))
	return fr.hdr[0], payload, nil
}
