package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
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

// decoded is a whole sensor stream read back: every table, every point, and
// for each point the index of the table it was encoded under.
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
	var buf bytes.Buffer
	sensor, err := NewSensor(&buf, table, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var want []symbolic.SymbolPoint
	enc := symbolic.NewEncoder(table, 60)
	for i := int64(0); i < 600; i++ {
		p := timeseries.Point{T: i, V: rng.Float64() * 1000}
		if err := sensor.Push(p); err != nil {
			t.Fatal(err)
		}
		if sp, ok, _ := enc.Push(p); ok {
			want = append(want, sp)
		}
	}
	if sp, ok := enc.Flush(); ok {
		want = append(want, sp)
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}

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

func TestGapStartsNewBatch(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer
	sensor, err := NewSensor(&buf, table, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Two windows, a 50-second hole, two more windows.
	for _, ts := range []int64{0, 5, 10, 15, 70, 75, 80, 85} {
		if err := sensor.Push(timeseries.Point{T: ts, V: 500}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: [0,10) [10,20) [70,80) [80,90) → T = 10,20,80,90.
	wantT := []int64{10, 20, 80, 90}
	if len(got.points) != len(wantT) {
		t.Fatalf("points = %d, want %d", len(got.points), len(wantT))
	}
	for i, w := range wantT {
		if got.points[i].T != w {
			t.Fatalf("T[%d] = %d, want %d", i, got.points[i].T, w)
		}
	}
}

func TestTableUpdateMidStream(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer
	sensor, err := NewSensor(&buf, table, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := sensor.Push(timeseries.Point{T: i, V: 100}); err != nil {
			t.Fatal(err)
		}
	}
	// New table with a different range (drifted data).
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = 4000 + float64(i)*10
	}
	table2, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sensor.UpdateTable(table2); err != nil {
		t.Fatal(err)
	}
	for i := int64(100); i < 200; i++ {
		if err := sensor.Push(timeseries.Point{T: i, V: 4500}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(got.tables))
	}
	value := func(i int) float64 {
		v, err := got.tables[got.tableAt[i]].Value(got.points[i].S)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Early points decode near 100, late points near 4500: the reader must
	// apply the right table per segment.
	if got.points[0].T != 10 {
		t.Fatalf("first point at t=%d, want 10", got.points[0].T)
	}
	early, late := value(0), value(len(got.points)-1)
	if math.Abs(early-100) > 100 {
		t.Fatalf("early reconstruction = %v, want ~100", early)
	}
	if math.Abs(late-4500) > 300 {
		t.Fatalf("late reconstruction = %v, want ~4500", late)
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
	sensor, err := NewSensor(client, table, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := sensor.Push(timeseries.Point{T: i, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}
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
	payload := make([]byte, 16)
	if err := writeFrame(&buf, FrameSymbol, payload); err != nil {
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
	buf.Write([]byte{FrameTable, 0, 0, 1, 0}) // claims 256 bytes, has none
	if _, err := decodeAll(&buf); err == nil {
		t.Fatal("truncated frame should error")
	}
	// Oversized length field.
	buf.Reset()
	buf.Write([]byte{FrameTable, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := decodeAll(&buf); err == nil {
		t.Fatal("oversized frame should error")
	}
	// Clean EOF without end frame is accepted (stream cut).
	buf.Reset()
	if _, err := decodeAll(&buf); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestSensorValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewSensor(&buf, nil, 10, 4); err == nil {
		t.Fatal("nil table should error")
	}
	if _, err := NewSensor(&buf, testTable(t), 0, 4); err == nil {
		t.Fatal("zero window should error")
	}
	sensor, err := NewSensor(&buf, testTable(t), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sensor.batchSize != 96 {
		t.Fatalf("default batch size = %d", sensor.batchSize)
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sensor.Push(timeseries.Point{}); err == nil {
		t.Fatal("push after close should error")
	}
	if err := sensor.UpdateTable(testTable(t)); err == nil {
		t.Fatal("update after close should error")
	}
	if err := sensor.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestCorruptedPayloadSurfaces(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer
	sensor, err := NewSensor(&buf, table, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := sensor.Push(timeseries.Point{T: i, V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip the level byte of the table frame payload: the frame length no
	// longer matches the declared alphabet and decoding must fail loudly.
	data[6] ^= 0xFF
	if _, err := decodeAll(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted table frame should error")
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)

// --- Handshake + Decoder protocol edges ----------------------------------

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 0xDEADBEEF); err != nil {
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
	sensor, err := NewSensor(&buf, testTable(t), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = sensor
	// The buffer starts with a 'T' frame, not 'H'.
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestReadHandshakeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 7); err != nil {
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
	// A well-formed frame of type 'H' whose payload is 3 bytes, not 9.
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 3, ProtocolVersion, 0, 0})
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestReadHandshakeVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 9, ProtocolVersion + 1, 0, 0, 0, 0, 0, 0, 0, 1})
	hs, err := ReadHandshake(&buf)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if hs.Version != ProtocolVersion+1 || hs.MeterID != 1 {
		t.Fatalf("mismatching handshake should still be parsed, got %+v", hs)
	}
}

func TestOversizedFrameTyped(t *testing.T) {
	var buf bytes.Buffer
	var hdr [5]byte
	hdr[0] = FrameTable
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
	sensor, err := NewSensor(&buf, table, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := sensor.Push(timeseries.Point{T: i, V: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}
	// Skip the leading table frame so the first thing seen is 'S'.
	data := buf.Bytes()
	tableLen := binary.BigEndian.Uint32(data[1:5])
	stream := data[5+tableLen:]
	if _, err := NewDecoder(bytes.NewReader(stream)).Next(); !errors.Is(err, ErrSymbolBeforeTable) {
		t.Fatalf("err = %v, want ErrSymbolBeforeTable", err)
	}
}

func TestDecoderRejectsLateHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 3); err != nil {
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
// incremental Decoder to hand back exactly what the sensor's encoders
// produced, under the table each point was encoded with.
func TestDecoderMatchesEncoder(t *testing.T) {
	table := testTable(t)
	var buf bytes.Buffer
	sensor, err := NewSensor(&buf, table, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var want []symbolic.SymbolPoint
	var wantTable []int
	enc := symbolic.NewEncoder(table, 10)
	push := func(from, to int64, epoch int) {
		for i := from; i < to; i++ {
			p := timeseries.Point{T: i, V: rng.Float64() * 1000}
			if err := sensor.Push(p); err != nil {
				t.Fatal(err)
			}
			if sp, ok, _ := enc.Push(p); ok {
				want, wantTable = append(want, sp), append(wantTable, epoch)
			}
		}
		if sp, ok := enc.Flush(); ok {
			want, wantTable = append(want, sp), append(wantTable, epoch)
		}
	}
	push(0, 500, 0)
	table2 := testTable(t)
	if err := sensor.UpdateTable(table2); err != nil {
		t.Fatal(err)
	}
	enc = symbolic.NewEncoder(table2, 10)
	push(500, 900, 1)
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}

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
		if got.points[i] != want[i] || got.tableAt[i] != wantTable[i] {
			t.Fatalf("point %d: decoder %+v under table %d, encoder %+v under table %d", i, got.points[i], got.tableAt[i], want[i], wantTable[i])
		}
	}
}

// buildSymbolStream writes one table frame followed by `frames` identical
// symbol batches of `batch` consecutive windows each, returning the raw
// stream bytes.
func buildSymbolStream(t *testing.T, table *symbolic.Table, frames, batch int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sensor, err := NewSensor(&buf, table, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames*batch; i++ {
		if err := sensor.Push(timeseries.Point{T: int64(i), V: float64(i % 500)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sensor.Close(); err != nil {
		t.Fatal(err)
	}
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
		if ev.Type != FrameSymbol || len(ev.Points) == 0 {
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

// TestSensorSteadyStateZeroAlloc enforces the sensor-side contract: pushing
// measurements through completed windows and batch flushes must not
// allocate once the batch and frame scratch buffers exist.
func TestSensorSteadyStateZeroAlloc(t *testing.T) {
	table := testTable(t)
	const batch = 16
	sensor, err := NewSensor(io.Discard, table, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	push := func() {
		// One run = one full batch: batch completed windows, one flush.
		for i := 0; i < batch; i++ {
			if err := sensor.Push(timeseries.Point{T: next, V: float64(next % 700)}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	push() // grow scratch buffers
	allocs := testing.AllocsPerRun(200, push)
	if allocs != 0 {
		t.Fatalf("steady-state Sensor.Push allocates %.1f times per run, want 0", allocs)
	}
}

// --- Protocol v2: flags handshake, acks, sequenced frames -----------------

func TestHandshakeV1StillAccepted(t *testing.T) {
	var buf bytes.Buffer
	payload := make([]byte, 9)
	payload[0] = 1 // v1: version | meterID, no flags byte
	binary.BigEndian.PutUint64(payload[1:], 42)
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 9})
	buf.Write(payload)
	hs, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatalf("v1 handshake refused: %v", err)
	}
	if hs.Version != 1 || hs.MeterID != 42 || hs.Sequenced() {
		t.Fatalf("hs = %+v, want v1 meter 42 unsequenced", hs)
	}
}

func TestHandshakeFlagsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshakeFlags(&buf, 7, FlagSequenced); err != nil {
		t.Fatal(err)
	}
	hs, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Version != ProtocolVersion || hs.MeterID != 7 || !hs.Sequenced() {
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
