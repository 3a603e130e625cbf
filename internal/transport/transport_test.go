package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
)

func testTable(t *testing.T) *symbolic.Table {
	t.Helper()
	vals := make([]float64, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// seqWriter writes an ingest stream the way a client session does: every
// table and batch frame takes the meter's next sequence number.
type seqWriter struct {
	t   *testing.T
	w   io.Writer
	seq uint64
}

// frame writes typ | length | seq | body under the next seq.
func (s *seqWriter) frame(typ byte, body []byte) {
	s.t.Helper()
	s.seq++
	buf := make([]byte, 13, 13+len(body))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:5], uint32(8+len(body)))
	binary.BigEndian.PutUint64(buf[5:13], s.seq)
	if _, err := s.w.Write(append(buf, body...)); err != nil {
		s.t.Fatal(err)
	}
}

func (s *seqWriter) table(table *symbolic.Table) {
	s.t.Helper()
	s.frame(FrameSeqTable, symbolic.MarshalTable(table))
}

// batches writes pts as 'D' frames of at most size consecutive windows each:
// a timestamp that does not continue the progression starts a new frame.
func (s *seqWriter) batches(pts []symbolic.SymbolPoint, window int64, size int) {
	s.t.Helper()
	for len(pts) > 0 {
		n := 1
		for n < len(pts) && n < size && pts[n].T == pts[n-1].T+window {
			n++
		}
		body := make([]byte, 16)
		binary.BigEndian.PutUint64(body[0:8], uint64(pts[0].T))
		binary.BigEndian.PutUint64(body[8:16], uint64(window))
		syms := make([]symbolic.Symbol, n)
		for i := range syms {
			syms[i] = pts[i].S
		}
		body, err := symbolic.AppendPack(body, syms)
		if err != nil {
			s.t.Fatal(err)
		}
		s.frame(FrameSeqSymbol, body)
		pts = pts[n:]
	}
}

func (s *seqWriter) end() {
	s.t.Helper()
	if err := writeFrame(s.w, FrameEnd, nil); err != nil {
		s.t.Fatal(err)
	}
}

// encode runs raw measurements through one encoder, flushing the trailing
// partial window.
func encode(t *testing.T, table *symbolic.Table, window int64, raw []timeseries.Point) []symbolic.SymbolPoint {
	t.Helper()
	enc := symbolic.NewEncoder(table, window)
	var out []symbolic.SymbolPoint
	for _, p := range raw {
		sp, ok, err := enc.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, sp)
		}
	}
	if sp, ok := enc.Flush(); ok {
		out = append(out, sp)
	}
	return out
}

// ramp returns one measurement per second over [from, to) with values from
// value.
func ramp(from, to int64, value func(i int64) float64) []timeseries.Point {
	var raw []timeseries.Point
	for i := from; i < to; i++ {
		raw = append(raw, timeseries.Point{T: i, V: value(i)})
	}
	return raw
}

// writeStream writes a whole single-table stream: table, batches, end.
func writeStream(t *testing.T, w io.Writer, table *symbolic.Table, pts []symbolic.SymbolPoint, window int64, size int) {
	t.Helper()
	sw := &seqWriter{t: t, w: w}
	sw.table(table)
	sw.batches(pts, window, size)
	sw.end()
}

// decoded is a whole stream read back: every table, every point, and for
// each point the index of the table it was encoded under.
type decoded struct {
	tables  []*symbolic.Table
	points  []symbolic.SymbolPoint
	tableAt []int
}

// decodeAll reads frames through a Decoder until the end frame or a clean
// EOF.
func decodeAll(r io.Reader) (decoded, error) {
	var d decoded
	dec := NewDecoder(r)
	for {
		ev, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return d, nil
		}
		if err != nil {
			return d, err
		}
		if ev.Type == FrameEnd {
			return d, nil
		}
		if ev.Table != nil {
			d.tables = append(d.tables, ev.Table)
		}
		for _, p := range ev.Points {
			d.points = append(d.points, p)
			d.tableAt = append(d.tableAt, len(d.tables)-1)
		}
	}
}

func TestRoundTripBuffer(t *testing.T) {
	table := testTable(t)
	rng := rand.New(rand.NewSource(2))
	want := encode(t, table, 60, ramp(0, 600, func(int64) float64 { return rng.Float64() * 1000 }))
	var buf bytes.Buffer
	writeStream(t, &buf, table, want, 60, 10)

	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.tables) != 1 {
		t.Fatalf("tables = %d", len(got.tables))
	}
	if len(got.points) != len(want) {
		t.Fatalf("points = %d, want %d", len(got.points), len(want))
	}
	for i := range want {
		if got.points[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got.points[i], want[i])
		}
	}
}

func TestOverNetPipe(t *testing.T) {
	table := testTable(t)
	client, srvConn := net.Pipe()
	// net.Pipe is fully synchronous; deadlines turn any protocol stall into
	// an error instead of a hang.
	deadline := time.Now().Add(30 * time.Second)
	_ = client.SetDeadline(deadline)
	_ = srvConn.SetDeadline(deadline)

	done := make(chan error, 1)
	var got decoded
	go func() {
		var err error
		got, err = decodeAll(srvConn)
		done <- err
	}()
	pts := encode(t, table, 10, ramp(0, 200, func(i int64) float64 { return float64(i) }))
	writeStream(t, client, table, pts, 10, 4)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got.points) != 20 {
		t.Fatalf("points = %d, want 20", len(got.points))
	}
}

func TestDecoderStreamErrors(t *testing.T) {
	// Symbol frame before any table.
	var buf bytes.Buffer
	payload := make([]byte, 24)
	if err := writeFrame(&buf, FrameSeqSymbol, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAll(&buf); err == nil {
		t.Fatal("symbol before table should error")
	}
	// Unknown frame type.
	buf.Reset()
	if err := writeFrame(&buf, 'X', nil); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAll(&buf); err == nil {
		t.Fatal("unknown frame should error")
	}
	// Truncated frame.
	buf.Reset()
	buf.Write([]byte{FrameSeqTable, 0, 0, 1, 0}) // claims 256 bytes, has none
	if _, err := decodeAll(&buf); err == nil {
		t.Fatal("truncated frame should error")
	}
	// Oversized length field.
	buf.Reset()
	buf.Write([]byte{FrameSeqTable, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := decodeAll(&buf); err == nil {
		t.Fatal("oversized frame should error")
	}
	// Clean EOF without end frame is accepted (stream cut).
	buf.Reset()
	if _, err := decodeAll(&buf); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestCorruptedPayloadSurfaces(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer
	writeStream(t, &buf, table, encode(t, table, 10, ramp(0, 100, func(int64) float64 { return 1 })), 10, 4)
	data := buf.Bytes()
	// Flip the level byte of the table inside the leading 'U' frame (header,
	// then seq, then the marshaled table): the frame length no longer matches
	// the declared alphabet and decoding must fail loudly.
	data[5+8+1] ^= 0xFF
	if _, err := decodeAll(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted table frame should error")
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)

// --- Handshake + Decoder protocol edges ----------------------------------

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshakeFlags(&buf, 0xDEADBEEF, FlagSequenced); err != nil {
		t.Fatal(err)
	}
	hs, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Version != ProtocolVersion || hs.MeterID != 0xDEADBEEF {
		t.Fatalf("handshake = %+v", hs)
	}
}

func TestReadHandshakeWrongFrameType(t *testing.T) {
	var buf bytes.Buffer
	(&seqWriter{t: t, w: &buf}).table(testTable(t))
	// The buffer starts with a 'U' frame, not 'H'.
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestReadHandshakeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshakeFlags(&buf, 7, FlagSequenced); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut++ {
		_, err := ReadHandshake(bytes.NewReader(buf.Bytes()[:cut]))
		if !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("cut=%d err = %v, want ErrBadHandshake", cut, err)
		}
	}
}

func TestReadHandshakeShortPayload(t *testing.T) {
	var buf bytes.Buffer
	// A well-formed frame of type 'H' whose payload is 3 bytes, not 10.
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 3, ProtocolVersion, 0, 0})
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestReadHandshakeVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 10, ProtocolVersion + 1, FlagSequenced, 0, 0, 0, 0, 0, 0, 0, 1})
	hs, err := ReadHandshake(&buf)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if hs.Version != ProtocolVersion+1 || hs.MeterID != 1 {
		t.Fatalf("mismatching handshake should still be parsed, got %+v", hs)
	}
}

// TestReadHandshakeRefusesV1 pins the two handshakes a v1 sensor could send:
// its own 9-byte version|meterID shape is a version mismatch, and the 10-byte
// shape without FlagSequenced is a bad handshake — there is no unsequenced
// session to fall back to.
func TestReadHandshakeRefusesV1(t *testing.T) {
	v1 := []byte{FrameHandshake, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 42}
	if _, err := ReadHandshake(bytes.NewReader(v1)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("v1 handshake: err = %v, want ErrVersionMismatch", err)
	}
	var buf bytes.Buffer
	if err := WriteHandshakeFlags(&buf, 42, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("flagless handshake: err = %v, want ErrBadHandshake", err)
	}
}

// TestDecoderRefusesV1Frames: the retired 'T' table and 'S' batch frames are
// outside the alphabet now.
func TestDecoderRefusesV1Frames(t *testing.T) {
	for _, typ := range []byte{'T', 'S'} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrUnknownFrame) {
			t.Fatalf("%q frame: err = %v, want ErrUnknownFrame", typ, err)
		}
	}
}

func TestOversizedFrameTyped(t *testing.T) {
	var buf bytes.Buffer
	var hdr [5]byte
	hdr[0] = FrameSeqSymbol
	binary.BigEndian.PutUint32(hdr[1:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("decoder err = %v, want ErrFrameTooLarge", err)
	}
	buf.Reset()
	buf.Write(hdr[:])
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("handshake err = %v, want ErrBadHandshake", err)
	}
}

func TestDecoderSymbolBeforeTable(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer
	writeStream(t, &buf, table, encode(t, table, 10, ramp(0, 50, func(int64) float64 { return 100 })), 10, 4)
	// Skip the leading table frame so the first thing seen is 'D'.
	data := buf.Bytes()
	tableLen := binary.BigEndian.Uint32(data[1:5])
	stream := data[5+tableLen:]
	if _, err := NewDecoder(bytes.NewReader(stream)).Next(); !errors.Is(err, ErrSymbolBeforeTable) {
		t.Fatalf("err = %v, want ErrSymbolBeforeTable", err)
	}
}

func TestDecoderRejectsLateHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshakeFlags(&buf, 3, FlagSequenced); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestDecoderUnknownFrameTyped(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'Z', 0, 0, 0, 0})
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrUnknownFrame) {
		t.Fatalf("err = %v, want ErrUnknownFrame", err)
	}
}

// TestDecoderMatchesEncoder streams through a table update and requires the
// incremental Decoder to hand back exactly what the encoders produced, under
// the table each point was encoded with.
func TestDecoderMatchesEncoder(t *testing.T) {
	table, table2 := testTable(t), testTable(t)
	rng := rand.New(rand.NewSource(9))
	noise := func(int64) float64 { return rng.Float64() * 1000 }
	first := encode(t, table, 10, ramp(0, 500, noise))
	second := encode(t, table2, 10, ramp(500, 900, noise))
	var buf bytes.Buffer
	sw := &seqWriter{t: t, w: &buf}
	sw.table(table)
	sw.batches(first, 10, 7)
	sw.table(table2)
	sw.batches(second, 10, 7)
	sw.end()
	want := append(slices.Clone(first), second...)

	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.tables) != 2 {
		t.Fatalf("decoder tables = %d, want 2", len(got.tables))
	}
	if len(got.points) != len(want) {
		t.Fatalf("decoder points = %d, encoder = %d", len(got.points), len(want))
	}
	for i := range want {
		wantTable := 0
		if i >= len(first) {
			wantTable = 1
		}
		if got.points[i] != want[i] || got.tableAt[i] != wantTable {
			t.Fatalf("point %d: decoder %+v under table %d, encoder %+v under table %d", i, got.points[i], got.tableAt[i], want[i], wantTable)
		}
	}
}

// buildSymbolStream writes one table frame followed by `frames` symbol
// batches of `batch` consecutive one-second windows each and the end frame,
// returning the raw stream bytes.
func buildSymbolStream(t *testing.T, table *symbolic.Table, frames, batch int) []byte {
	t.Helper()
	pts := make([]symbolic.SymbolPoint, frames*batch)
	for i := range pts {
		pts[i] = symbolic.SymbolPoint{T: int64(i + 1), S: table.Encode(float64(i % 500))}
	}
	var buf bytes.Buffer
	writeStream(t, &buf, table, pts, 1, batch)
	return buf.Bytes()
}

// TestDecoderNextZeroAlloc enforces the Decoder's buffer-reuse contract:
// after its scratch buffers reach the working size, decoding a symbol frame
// must not allocate.
func TestDecoderNextZeroAlloc(t *testing.T) {
	table := testTable(t)
	const frames = 300
	data := buildSymbolStream(t, table, frames, 96)
	dec := NewDecoder(bytes.NewReader(data))
	// Warm up: table frame plus a few symbol frames grow the scratch buffers.
	for i := 0; i < 4; i++ {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type != FrameSeqSymbol || len(ev.Points) == 0 {
			t.Fatalf("unexpected event %c with %d points", ev.Type, len(ev.Points))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decoder.Next allocates %.1f times per run, want 0", allocs)
	}
}

// TestDecoderPointsReused pins the documented valid-until-next-call
// semantics: the Points slice aliases decoder scratch across calls, and a
// copy detaches a batch from it.
func TestDecoderPointsReused(t *testing.T) {
	table := testTable(t)
	data := buildSymbolStream(t, table, 3, 8)
	dec := NewDecoder(bytes.NewReader(data))
	if _, err := dec.Next(); err != nil { // table frame
		t.Fatal(err)
	}
	ev1, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := ev1.Points[0]
	clone := slices.Clone(ev1.Points)
	ev2, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &ev1.Points[0] != &ev2.Points[0] {
		t.Fatal("decoder allocated a fresh Points slice; expected scratch reuse")
	}
	if ev1.Points[0] == first {
		t.Fatal("second Next did not overwrite the reused batch (test fixture too uniform)")
	}
	if clone[0] != first || len(clone) != 8 {
		t.Fatal("the copy did not preserve the first batch")
	}
}

// --- Flags handshake, acks, sequenced frames -------------------------------

func TestHandshakeFlagsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshakeFlags(&buf, 7, FlagSequenced); err != nil {
		t.Fatal(err)
	}
	hs, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Version != ProtocolVersion || hs.MeterID != 7 || hs.Flags != FlagSequenced {
		t.Fatalf("hs = %+v, want v%d meter 7 sequenced", hs, ProtocolVersion)
	}
}

func TestHandshakeUnknownFlagBitsRejected(t *testing.T) {
	var buf bytes.Buffer
	payload := make([]byte, 10)
	payload[0] = ProtocolVersion
	payload[1] = FlagSequenced | 0x80
	binary.BigEndian.PutUint64(payload[2:], 1)
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 10})
	buf.Write(payload)
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake for unknown flag bits", err)
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	frame := AppendAckFrame(nil, 0xCAFEBABE12345678)
	fr := NewFrameReader(bytes.NewReader(frame))
	typ, payload, err := fr.Next()
	if err != nil || typ != FrameAck {
		t.Fatalf("frame = (%#x, %v), want 'A'", typ, err)
	}
	seq, err := DecodeAck(payload)
	if err != nil || seq != 0xCAFEBABE12345678 {
		t.Fatalf("DecodeAck = (%#x, %v)", seq, err)
	}
	if _, err := DecodeAck(payload[:4]); err == nil {
		t.Fatal("truncated ack payload decoded")
	}
}

func TestDecoderSequencedFrames(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer

	// 'U' seq=1 carrying the table.
	body := symbolic.MarshalTable(table)
	hdr := []byte{FrameSeqTable, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:5], uint32(8+len(body)))
	buf.Write(hdr)
	var seq8 [8]byte
	binary.BigEndian.PutUint64(seq8[:], 1)
	buf.Write(seq8[:])
	buf.Write(body)

	// 'D' seq=2: firstT=100, window=10, three symbols.
	syms := []symbolic.Symbol{
		symbolic.NewSymbol(1, table.Level()),
		symbolic.NewSymbol(2, table.Level()),
		symbolic.NewSymbol(3, table.Level()),
	}
	packed, err := symbolic.Pack(syms)
	if err != nil {
		t.Fatal(err)
	}
	dhdr := []byte{FrameSeqSymbol, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(dhdr[1:5], uint32(24+len(packed)))
	buf.Write(dhdr)
	binary.BigEndian.PutUint64(seq8[:], 2)
	buf.Write(seq8[:])
	binary.BigEndian.PutUint64(seq8[:], 100)
	buf.Write(seq8[:])
	binary.BigEndian.PutUint64(seq8[:], 10)
	buf.Write(seq8[:])
	buf.Write(packed)

	dec := NewDecoder(&buf)
	ev, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != FrameSeqTable || ev.Seq != 1 || ev.Table == nil {
		t.Fatalf("first event = %+v, want seq table seq=1", ev)
	}
	ev, err = dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != FrameSeqSymbol || ev.Seq != 2 || len(ev.Points) != 3 {
		t.Fatalf("second event = %+v, want seq batch seq=2 with 3 points", ev)
	}
	for i, p := range ev.Points {
		if p.T != 100+int64(i)*10 {
			t.Fatalf("point %d at t=%d, want %d", i, p.T, 100+int64(i)*10)
		}
	}
}

func TestDecoderSeqSymbolBeforeTable(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{FrameSeqSymbol, 0, 0, 0, 24}
	buf.Write(hdr)
	buf.Write(make([]byte, 24))
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrSymbolBeforeTable) {
		t.Fatalf("err = %v, want ErrSymbolBeforeTable", err)
	}
}

func TestRetryablePredicate(t *testing.T) {
	for _, err := range []error{ErrServerDegraded, ErrServerOverloaded, ErrServerDraining, ErrMeterBusy} {
		if !Retryable(err) {
			t.Fatalf("Retryable(%v) = false, want true", err)
		}
	}
	for code, sentinel := range map[byte]error{
		VerdictDegraded:   ErrServerDegraded,
		VerdictOverloaded: ErrServerOverloaded,
		VerdictDraining:   ErrServerDraining,
		VerdictBusy:       ErrMeterBusy,
	} {
		qe := &QueryError{Code: code, Msg: "x"}
		if !errors.Is(qe, sentinel) {
			t.Fatalf("QueryError code %d does not match its sentinel", code)
		}
		if !Retryable(qe) {
			t.Fatalf("Retryable(code %d) = false, want true", code)
		}
	}
	if Retryable(&QueryError{Code: QErrInternal}) || Retryable(io.EOF) || Retryable(nil) {
		t.Fatal("non-retryable error classified retryable")
	}
}
