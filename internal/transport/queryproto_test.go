package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// encodeDecodeRequest round-trips one request through the wire bytes.
func encodeDecodeRequest(t *testing.T, req QueryRequest) QueryRequest {
	t.Helper()
	frame := AppendQueryRequestFrame(nil, req)
	if frame[0] != FrameQuery {
		t.Fatalf("frame type %#x, want 'Q'", frame[0])
	}
	if n := binary.BigEndian.Uint32(frame[1:5]); int(n) != len(frame)-5 {
		t.Fatalf("frame claims %d payload bytes, has %d", n, len(frame)-5)
	}
	got, err := DecodeQueryRequest(frame[5:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestQueryRequestRoundTrip(t *testing.T) {
	for op := OpCount; op < opEnd; op++ {
		for _, fleet := range []bool{false, true} {
			req := QueryRequest{
				ID:      0xdeadbeef00 + uint64(op),
				Op:      op,
				Fleet:   fleet,
				MeterID: 77,
				T0:      -100,
				T1:      1 << 40,
			}
			if got := encodeDecodeRequest(t, req); got != req {
				t.Fatalf("round trip %+v -> %+v", req, got)
			}
		}
	}
}

func TestQueryRequestMalformed(t *testing.T) {
	good := AppendQueryRequestFrame(nil, QueryRequest{ID: 42, Op: OpSum, MeterID: 1, T0: 0, T1: 10})[5:]

	short := good[:len(good)-1]
	if req, err := DecodeQueryRequest(short); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("short payload: err = %v", err)
	} else if req.ID != 42 {
		t.Fatalf("short payload lost the id: %d", req.ID)
	}

	long := append(append([]byte(nil), good...), 0)
	if _, err := DecodeQueryRequest(long); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("long payload: err = %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[0] = 99
	if req, err := DecodeQueryRequest(badVer); !errors.Is(err, ErrQueryVersionMismatch) {
		t.Fatalf("bad version: err = %v", err)
	} else if req.ID != 42 {
		t.Fatalf("bad version lost the id: %d", req.ID)
	}

	for _, op := range []byte{0, byte(opEnd), 0xff} {
		bad := append([]byte(nil), good...)
		bad[1] = op
		if _, err := DecodeQueryRequest(bad); !errors.Is(err, ErrUnknownOp) {
			t.Fatalf("op %#x: err = %v", op, err)
		}
	}

	badFlags := append([]byte(nil), good...)
	badFlags[2] = 0x80
	if _, err := DecodeQueryRequest(badFlags); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("unknown flags: err = %v", err)
	}
}

// roundTripResult encodes res and decodes it back through a fresh result.
func roundTripResult(t *testing.T, res *QueryResult) QueryResult {
	t.Helper()
	frame, err := AppendQueryResultFrame(nil, res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if frame[0] != FrameResult {
		t.Fatalf("frame type %#x, want 'R'", frame[0])
	}
	if n := binary.BigEndian.Uint32(frame[1:5]); int(n) != len(frame)-5 {
		t.Fatalf("frame claims %d payload bytes, has %d", n, len(frame)-5)
	}
	var got QueryResult
	if err := DecodeQueryResponse(frame[0], frame[5:], &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestQueryResultRoundTrip(t *testing.T) {
	cases := []QueryResult{
		{ID: 1, Op: OpCount, Count: 12345},
		{ID: 2, Op: OpSum, Count: 9, Sum: -1234.5625},
		{ID: 3, Op: OpMean, Count: 0, Value: math.NaN()},
		{ID: 4, Op: OpMin, Count: 3, Value: math.Inf(-1)},
		{ID: 5, Op: OpMax, Count: 3, Value: 4000},
		{ID: 6, Op: OpAggregate, Count: 7, Sum: 21.25, Min: -1, Max: 11},
		{ID: 7, Op: OpHistogram, Level: 2, Counts: []uint64{1, 0, 3, math.MaxUint64}},
		{ID: 8, Op: OpHistogram, Level: 0, Counts: nil}, // empty range
	}
	for _, want := range cases {
		got := roundTripResult(t, &want)
		if got.ID != want.ID || got.Op != want.Op || got.Count != want.Count {
			t.Fatalf("op %#x: got %+v want %+v", want.Op, got, want)
		}
		// Floats compare as bit patterns: the protocol promises bit-exact
		// transfer, including NaN and infinities.
		for _, pair := range [][2]float64{
			{got.Value, want.Value}, {got.Sum, want.Sum},
			{got.Min, want.Min}, {got.Max, want.Max},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("op %#x: float bits %x != %x", want.Op, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
		if got.Level != want.Level || len(got.Counts) != len(want.Counts) {
			t.Fatalf("op %#x: histogram %d/%v want %d/%v", want.Op, got.Level, got.Counts, want.Level, want.Counts)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("bin %d: %d want %d", i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

func TestQueryResultEncodeRejectsGarbage(t *testing.T) {
	if _, err := AppendQueryResultFrame(nil, &QueryResult{Op: 0xff}); err == nil {
		t.Fatal("unknown op encoded")
	}
	if _, err := AppendQueryResultFrame(nil, &QueryResult{Op: OpHistogram, Level: 3, Counts: make([]uint64, 5)}); err == nil {
		t.Fatal("bin/level mismatch encoded")
	}
	if _, err := AppendQueryResultFrame(nil, &QueryResult{Op: OpHistogram, Level: 64}); err == nil {
		t.Fatal("absurd level encoded")
	}
	// A failed encode must not leave partial frame bytes behind.
	buf := []byte("prefix")
	out, err := AppendQueryResultFrame(buf, &QueryResult{Op: 0xff})
	if err == nil || len(out) != len(buf) {
		t.Fatalf("failed encode left %d bytes (err %v)", len(out)-len(buf), err)
	}
}

func TestQueryErrorFrame(t *testing.T) {
	frame := AppendQueryErrorFrame(nil, 99, QErrUnknownMeter, "meter 5 not in store")
	var res QueryResult
	err := DecodeQueryResponse(frame[0], frame[5:], &res)
	if res.ID != 99 {
		t.Fatalf("id = %d, want 99", res.ID)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Code != QErrUnknownMeter || qe.Msg != "meter 5 not in store" {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, ErrQueryUnknownMeter) {
		t.Fatalf("err %v does not match ErrQueryUnknownMeter", err)
	}
	// Each code maps onto its sentinel and no other.
	codes := map[byte]error{
		QErrBadRange:     ErrQueryBadRange,
		QErrUnknownMeter: ErrQueryUnknownMeter,
		QErrMixedLevels:  ErrQueryMixedLevels,
		QErrLevelTooFine: ErrQueryLevelTooFine,
		QErrVersion:      ErrQueryVersionMismatch,
	}
	for code, sentinel := range codes {
		e := &QueryError{Code: code}
		if !errors.Is(e, sentinel) {
			t.Fatalf("code %d does not match %v", code, sentinel)
		}
		for other, os := range codes {
			if other != code && errors.Is(e, os) {
				t.Fatalf("code %d also matches %v", code, os)
			}
		}
	}
}

func TestQueryErrorCodeFlatten(t *testing.T) {
	if code, _ := QueryErrorCode(&QueryError{Code: QErrBadRange, Msg: "x"}); code != QErrBadRange {
		t.Fatalf("code = %d", code)
	}
	if code, msg := QueryErrorCode(errors.New("disk on fire")); code != QErrInternal || msg != "disk on fire" {
		t.Fatalf("internal mapping: %d %q", code, msg)
	}
}

func TestDecodeQueryResponseMalformed(t *testing.T) {
	var res QueryResult
	if err := DecodeQueryResponse(FrameResult, []byte{1, 2, 3}, &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("short payload: %v", err)
	}
	if err := DecodeQueryResponse(FrameSeqTable, make([]byte, 16), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("wrong frame type: %v", err)
	}

	mk := func(op byte, body []byte) []byte {
		p := make([]byte, 9, 9+len(body))
		binary.BigEndian.PutUint64(p[0:8], 1)
		p[8] = op
		return append(p, body...)
	}
	if err := DecodeQueryResponse(FrameResult, mk(OpCount, make([]byte, 7)), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("short count body: %v", err)
	}
	if err := DecodeQueryResponse(FrameResult, mk(OpAggregate, make([]byte, 33)), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("long aggregate body: %v", err)
	}
	if err := DecodeQueryResponse(FrameResult, mk(0xee, make([]byte, 8)), &res); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("unknown op: %v", err)
	}

	// Histogram bodies: truncated header, lying bin count, absurd level.
	if err := DecodeQueryResponse(FrameResult, mk(OpHistogram, []byte{2, 0}), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("truncated histogram header: %v", err)
	}
	lying := []byte{2, 0, 0, 0, 3} // level 2 claims 3 bins
	if err := DecodeQueryResponse(FrameResult, mk(OpHistogram, lying), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("lying bin count: %v", err)
	}
	absurd := []byte{63, 0, 0, 0, 4} // level 63 would demand 2^63 bins
	if err := DecodeQueryResponse(FrameResult, mk(OpHistogram, absurd), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("absurd level: %v", err)
	}
	torn := append([]byte{2, 0, 0, 0, 4}, make([]byte, 3*8)...) // 4 bins claimed, 3 present
	if err := DecodeQueryResponse(FrameResult, mk(OpHistogram, torn), &res); !errors.Is(err, ErrBadQueryFrame) {
		t.Fatalf("torn histogram: %v", err)
	}
}

func TestFrameReader(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, FrameSeqSymbol, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	typ, payload, err := fr.Next()
	if err != nil || typ != FrameEnd || len(payload) != 0 {
		t.Fatalf("first frame: %c %v %v", typ, payload, err)
	}
	typ, payload, err = fr.Next()
	if err != nil || typ != FrameSeqSymbol || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("second frame: %c %v %v", typ, payload, err)
	}
	if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end: %v", err)
	}

	// Torn header and oversized claims.
	fr = NewFrameReader(bytes.NewReader([]byte{'S', 0, 0}))
	if _, _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: %v", err)
	}
	var big bytes.Buffer
	big.WriteByte('S')
	binary.Write(&big, binary.BigEndian, uint32(MaxFrame+1))
	fr = NewFrameReader(&big)
	if _, _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
}

// TestDecodeQueryResponseZeroAlloc pins the steady-state response decode at
// zero allocations — the pkg/client hot path.
func TestDecodeQueryResponseZeroAlloc(t *testing.T) {
	agg, err := AppendQueryResultFrame(nil, &QueryResult{ID: 1, Op: OpAggregate, Count: 5, Sum: 10, Min: 1, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := AppendQueryResultFrame(nil, &QueryResult{ID: 2, Op: OpHistogram, Level: 4, Counts: make([]uint64, 16)})
	if err != nil {
		t.Fatal(err)
	}
	var res QueryResult
	// Warm the reusable bins before measuring.
	if err := DecodeQueryResponse(hist[0], hist[5:], &res); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeQueryResponse(agg[0], agg[5:], &res); err != nil {
			t.Fatal(err)
		}
		if err := DecodeQueryResponse(hist[0], hist[5:], &res); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("response decode allocates %v per run", n)
	}
}

// TestAppendQueryFramesZeroAlloc pins the request/response encode paths at
// zero allocations once the buffer has capacity.
func TestAppendQueryFramesZeroAlloc(t *testing.T) {
	res := &QueryResult{ID: 1, Op: OpAggregate, Count: 5, Sum: 10, Min: 1, Max: 3}
	buf := make([]byte, 0, 256)
	req := QueryRequest{ID: 9, Op: OpSum, MeterID: 3, T0: 0, T1: 100}
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendQueryRequestFrame(buf[:0], req)
		var err error
		buf, err = AppendQueryResultFrame(buf[:0], res)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("frame encode allocates %v per run", n)
	}
}
