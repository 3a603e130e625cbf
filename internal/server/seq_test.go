// Sequenced-session protocol tests: the acknowledged, exactly-once decode
// loop negotiated by FlagSequenced, the overload admission gate, graceful
// drain, half-closed peers, and the write-deadline reaping of consumers
// that stop reading. These drive raw frames over real TCP (or net.Pipe
// where the test needs a peer whose reads it fully controls).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// seqTableFrame builds a 'U' frame: a table push under seq.
func seqTableFrame(seq uint64, table *symbolic.Table) []byte {
	body := symbolic.MarshalTable(table)
	frame := make([]byte, 13, 13+len(body))
	frame[0] = transport.FrameSeqTable
	binary.BigEndian.PutUint32(frame[1:5], uint32(8+len(body)))
	binary.BigEndian.PutUint64(frame[5:13], seq)
	return append(frame, body...)
}

// seqBatchFrame builds a 'D' frame: symbols at firstT + i*window under seq.
func seqBatchFrame(t *testing.T, seq uint64, firstT, window int64, symbols []symbolic.Symbol) []byte {
	t.Helper()
	frame := make([]byte, 29)
	frame[0] = transport.FrameSeqSymbol
	binary.BigEndian.PutUint64(frame[5:13], seq)
	binary.BigEndian.PutUint64(frame[13:21], uint64(firstT))
	binary.BigEndian.PutUint64(frame[21:29], uint64(window))
	frame, err := symbolic.AppendPack(frame, symbols)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(frame)-5))
	return frame
}

// expectAck reads the next frame and requires it to be an ack for want.
func expectAck(t *testing.T, fr *transport.FrameReader, want uint64) {
	t.Helper()
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	if typ != transport.FrameAck {
		t.Fatalf("got %#x frame, want ack", typ)
	}
	seq, err := transport.DecodeAck(payload)
	if err != nil || seq != want {
		t.Fatalf("ack seq %d (err %v), want %d", seq, err, want)
	}
}

// expectRefusal reads the next frame and requires it to be an 'X' verdict
// addressed to wantSeq that errors.Is-matches sentinel.
func expectRefusal(t *testing.T, fr *transport.FrameReader, wantSeq uint64, sentinel error) {
	t.Helper()
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	var res transport.QueryResult
	derr := transport.DecodeQueryResponse(typ, payload, &res)
	var qe *transport.QueryError
	if !errors.As(derr, &qe) {
		t.Fatalf("got %#x frame (decode %v), want typed refusal", typ, derr)
	}
	if res.ID != wantSeq || !errors.Is(qe, sentinel) {
		t.Fatalf("refusal id=%d err=%v, want id=%d matching %v", res.ID, qe, wantSeq, sentinel)
	}
}

// sequencedDial opens a sequenced session and consumes the handshake ack,
// returning the connection, its frame reader, and the server's high-water
// mark.
func sequencedDial(t *testing.T, addr string, meterID uint64) (net.Conn, *transport.FrameReader, uint64) {
	t.Helper()
	conn := rawConn(t, addr)
	if err := transport.WriteHandshakeFlags(conn, meterID, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	fr := transport.NewFrameReader(conn)
	typ, payload, err := fr.Next()
	if err != nil || typ != transport.FrameAck {
		t.Fatalf("handshake reply: typ=%#x err=%v", typ, err)
	}
	hwm, err := transport.DecodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return conn, fr, hwm
}

// TestSequencedSessionExactlyOnce: the full acked flow — handshake ack at
// mark 0, table and batch commits acked in order, a retransmitted seq
// suppressed as a duplicate (acked, counted, not re-committed).
func TestSequencedSessionExactlyOnce(t *testing.T) {
	svc, addr := startService(t, 2)
	table := testTable(t)
	syms := make([]symbolic.Symbol, 4)
	for i := range syms {
		syms[i] = table.Encode(float64(100 + i))
	}

	conn, fr, hwm := sequencedDial(t, addr, 7)
	if hwm != 0 {
		t.Fatalf("fresh meter high-water mark %d, want 0", hwm)
	}
	if _, err := conn.Write(seqTableFrame(1, table)); err != nil {
		t.Fatal(err)
	}
	expectAck(t, fr, 1)
	batch := seqBatchFrame(t, 2, 0, 60, syms)
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	expectAck(t, fr, 2)
	// Retransmit seq 2 — the lost-ack case. Acked again, committed once.
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	expectAck(t, fr, 2)
	writeRawFrame(t, conn, transport.FrameEnd, 0, nil)
	if !svc.AwaitSessions(1, 5*time.Second) {
		t.Fatal("session never completed")
	}
	conn.Close()

	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	st, ok := svc.Store().Snapshot(7)
	if !ok || len(st.Points) != len(syms) {
		t.Fatalf("store holds %d points (ok=%v), want %d — duplicate committed?", len(st.Points), ok, len(syms))
	}
	stats := svc.Stats()
	if stats.Sessions != 1 || stats.DuplicateBatches != 1 {
		t.Fatalf("stats: sessions=%d dups=%d, want 1/1", stats.Sessions, stats.DuplicateBatches)
	}
	if got := svc.Store().LastSeq(7); got != 2 {
		t.Fatalf("LastSeq after session: %d, want 2", got)
	}
}

// TestSequencedReconnectLearnsHighWaterMark: an abrupt disconnect, then a
// new sequenced session for the same meter whose handshake ack carries the
// committed mark — the client resumes instead of replaying history.
func TestSequencedReconnectLearnsHighWaterMark(t *testing.T) {
	svc, addr := startService(t, 2)
	table := testTable(t)
	syms := []symbolic.Symbol{table.Encode(1), table.Encode(2)}

	conn, fr, _ := sequencedDial(t, addr, 3)
	conn.Write(seqTableFrame(1, table))
	expectAck(t, fr, 1)
	conn.Write(seqBatchFrame(t, 2, 0, 60, syms))
	expectAck(t, fr, 2)
	conn.Close() // no 'E': abrupt mid-stream death
	waitSessionErr(t, svc, io.ErrUnexpectedEOF)

	conn2, fr2, hwm := sequencedDial(t, addr, 3)
	defer conn2.Close()
	if hwm != 2 {
		t.Fatalf("reconnect high-water mark %d, want 2", hwm)
	}
	conn2.Write(seqBatchFrame(t, 3, 120, 60, syms))
	expectAck(t, fr2, 3)
	writeRawFrame(t, conn2, transport.FrameEnd, 0, nil)
	if !svc.AwaitSessions(2, 5*time.Second) {
		t.Fatal("reconnect session never completed")
	}
	if n := svc.Stats().ReconnectReplays; n != 1 {
		t.Fatalf("ReconnectReplays = %d, want 1", n)
	}
	st, _ := svc.Store().Snapshot(3)
	if len(st.Points) != 4 {
		t.Fatalf("store holds %d points, want 4", len(st.Points))
	}
}

// TestSequencedGapTearsDown: a seq that skips ahead is a protocol violation
// — the session dies with ErrSeqGap rather than committing out of order,
// and nothing from the gapped frame lands in the store.
func TestSequencedGapTearsDown(t *testing.T) {
	svc, addr := startService(t, 2)
	table := testTable(t)

	conn, fr, _ := sequencedDial(t, addr, 5)
	conn.Write(seqTableFrame(1, table))
	expectAck(t, fr, 1)
	conn.Write(seqBatchFrame(t, 9, 0, 60, []symbolic.Symbol{table.Encode(1)}))
	waitSessionErr(t, svc, ErrSeqGap)
	expectClosed(t, conn)
	if st, _ := svc.Store().Snapshot(5); len(st.Points) != 0 {
		t.Fatalf("gapped frame committed %d points", len(st.Points))
	}
}

// refuseOnceIngest wraps the store's Ingest and refuses the first AppendSeq
// with a typed overload — the per-batch retryable refusal path.
type refuseOnceIngest struct {
	*Store
	refused bool
}

func (r *refuseOnceIngest) AppendSeq(meterID, seq uint64, pts []symbolic.SymbolPoint) (int, bool, error) {
	if !r.refused {
		r.refused = true
		return 0, false, fmt.Errorf("%w: synthetic refusal", ErrOverloaded)
	}
	return r.Store.AppendSeq(meterID, seq, pts)
}

// TestSequencedRetryableRefusalKeepsSession: a typed overload refusal is
// answered with an 'X' addressed to the refused seq, the session stays up,
// and resending the SAME seq commits — the client-visible backoff contract.
func TestSequencedRetryableRefusalKeepsSession(t *testing.T) {
	svc := New(Config{Shards: 2})
	svc.SetIngest(&refuseOnceIngest{Store: svc.Store()})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	table := testTable(t)
	syms := []symbolic.Symbol{table.Encode(5)}

	conn, fr, _ := sequencedDial(t, addr.String(), 11)
	conn.Write(seqTableFrame(1, table))
	expectAck(t, fr, 1)
	batch := seqBatchFrame(t, 2, 0, 60, syms)
	conn.Write(batch)
	expectRefusal(t, fr, 2, transport.ErrServerOverloaded)
	conn.Write(batch) // same seq, after "backoff"
	expectAck(t, fr, 2)
	writeRawFrame(t, conn, transport.FrameEnd, 0, nil)
	if !svc.AwaitSessions(1, 5*time.Second) {
		t.Fatal("session never completed")
	}
	conn.Close()
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("refusal killed the session: %v", errs)
	}
	if st, _ := svc.Store().Snapshot(11); len(st.Points) != 1 {
		t.Fatalf("store holds %d points, want 1", len(st.Points))
	}
}

// TestLegacyRefusalPartingVerdict: a v1 session ends at its handshake, before
// the ingest sees anything, and without a parting 'X' verdict — a version
// mismatch is not retryable, so there is no typed hint to give and the
// connection just closes. The refusing ingest behind it is first reached by
// the sequenced session that follows: its table commits under seq 1 and its
// batch gets the per-batch refusal.
func TestLegacyRefusalPartingVerdict(t *testing.T) {
	svc := New(Config{Shards: 2})
	svc.SetIngest(&refuseOnceIngest{Store: svc.Store()})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	table := testTable(t)

	conn := rawConn(t, addr.String())
	writeRawFrame(t, conn, transport.FrameHandshake, 9, v1Handshake(12))
	waitSessionErr(t, svc, transport.ErrVersionMismatch)
	expectClosed(t, conn) // a parting frame would be read here instead
	if _, ok := svc.Store().Snapshot(12); ok || svc.Store().LastSeq(12) != 0 {
		t.Fatalf("refused v1 session registered the meter (mark %d)", svc.Store().LastSeq(12))
	}

	seq, fr, hwm := sequencedDial(t, addr.String(), 12)
	if hwm != 0 {
		t.Fatalf("handshake mark %d after a refused v1 session, want 0", hwm)
	}
	seq.Write(seqTableFrame(1, table))
	expectAck(t, fr, 1)
	seq.Write(seqBatchFrame(t, 2, 0, 60, []symbolic.Symbol{table.Encode(5)}))
	expectRefusal(t, fr, 2, transport.ErrServerOverloaded)
	if got := svc.Store().LastSeq(12); got != 1 {
		t.Fatalf("LastSeq = %d, want 1 (the table)", got)
	}
}

// TestLegacyFrameFamilyMismatch: protocol v1 is retired, and each of its
// shapes is refused with a typed error and a closed connection — a v1
// handshake (whatever frames follow it), a flag-less v2 handshake, and a v1
// 'T' table or 'S' batch frame after a valid handshake. None commits anything
// or leaves the meter's session slot held: the meter still dials a sequenced
// session afterwards, at the mark its committed frames (if any) earned.
func TestLegacyFrameFamilyMismatch(t *testing.T) {
	table := testTable(t)
	batch := seqBatchFrame(t, 2, 0, 60, []symbolic.Symbol{table.Encode(5)})
	flagless := make([]byte, 10)
	flagless[0] = transport.ProtocolVersion
	binary.BigEndian.PutUint64(flagless[2:], 30)
	cases := []struct {
		name     string
		open     func(t *testing.T, addr string) net.Conn
		want     error
		wantMark uint64 // tables committed before the refused frame
	}{
		{"v1 then seq table", func(t *testing.T, addr string) net.Conn {
			conn := rawConn(t, addr)
			writeRawFrame(t, conn, transport.FrameHandshake, 9, v1Handshake(30))
			conn.Write(seqTableFrame(1, table))
			return conn
		}, transport.ErrVersionMismatch, 0},
		{"v1 then seq batch", func(t *testing.T, addr string) net.Conn {
			conn := rawConn(t, addr)
			writeRawFrame(t, conn, transport.FrameHandshake, 9, v1Handshake(30))
			conn.Write(v1Frame(seqTableFrame(1, table)))
			conn.Write(batch)
			return conn
		}, transport.ErrVersionMismatch, 0},
		{"flagless handshake", func(t *testing.T, addr string) net.Conn {
			conn := rawConn(t, addr)
			writeRawFrame(t, conn, transport.FrameHandshake, 10, flagless)
			return conn
		}, transport.ErrBadHandshake, 0},
		{"v2 then v1 table", func(t *testing.T, addr string) net.Conn {
			conn, _, _ := sequencedDial(t, addr, 30)
			conn.Write(v1Frame(seqTableFrame(1, table)))
			return conn
		}, transport.ErrUnknownFrame, 0},
		{"v2 then v1 batch", func(t *testing.T, addr string) net.Conn {
			conn, fr, _ := sequencedDial(t, addr, 30)
			conn.Write(seqTableFrame(1, table))
			expectAck(t, fr, 1)
			conn.Write(v1Frame(batch))
			return conn
		}, transport.ErrUnknownFrame, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, addr := startService(t, 2)
			conn := tc.open(t, addr)
			waitSessionErr(t, svc, tc.want)
			expectClosed(t, conn)
			st, ok := svc.Store().Snapshot(30)
			if uint64(len(st.Tables)) != tc.wantMark || len(st.Points) != 0 || svc.Store().LastSeq(30) != tc.wantMark {
				t.Fatalf("store holds %d tables, %d points, mark %d; want %d, 0, %d",
					len(st.Tables), len(st.Points), svc.Store().LastSeq(30), tc.wantMark, tc.wantMark)
			}
			if ok != (tc.want == transport.ErrUnknownFrame) {
				t.Fatalf("meter registered = %v after a refused %s", ok, tc.name)
			}
			again, _, hwm := sequencedDial(t, addr, 30)
			if hwm != tc.wantMark {
				t.Fatalf("redial mark %d, want %d", hwm, tc.wantMark)
			}
			writeRawFrame(t, again, transport.FrameEnd, 0, nil)
		})
	}
}

// v1Handshake builds the payload of a retired v1 handshake: version 1, then
// the meter ID, with no flags byte.
func v1Handshake(meterID uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{1}, meterID)
}

// v1Frame re-frames a sequenced 'U'/'D' frame as its retired v1 twin,
// 'T'/'S': the same body without the seq.
func v1Frame(seqFrame []byte) []byte {
	typ := byte('T')
	if seqFrame[0] == transport.FrameSeqSymbol {
		typ = 'S'
	}
	frame := []byte{typ, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[1:], uint32(len(seqFrame)-13))
	return append(frame, seqFrame[13:]...)
}

// TestOverloadGate pins acquireIngest's admission arithmetic: budget
// exhaustion refuses with ErrOverloaded, release restores admission, and a
// batch arriving at an idle shard is always admitted no matter its size.
func TestOverloadGate(t *testing.T) {
	svc := New(Config{Shards: 2, IngestBudget: 100})
	defer svc.Close()
	// Two meters on the same shard.
	m1, m2 := uint64(1), uint64(0)
	for m := uint64(2); ; m++ {
		if svc.Store().ShardFor(m) == svc.Store().ShardFor(m1) {
			m2 = m
			break
		}
	}
	if err := svc.acquireIngest(m1, 64); err != nil {
		t.Fatalf("first batch refused: %v", err)
	}
	if err := svc.acquireIngest(m2, 64); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget batch: got %v, want ErrOverloaded", err)
	}
	if n := svc.Stats().OverloadRefusals; n != 1 {
		t.Fatalf("OverloadRefusals = %d, want 1", n)
	}
	svc.releaseIngest(m1, 64)
	if err := svc.acquireIngest(m2, 64); err != nil {
		t.Fatalf("batch after release refused: %v", err)
	}
	svc.releaseIngest(m2, 64)
	// Oversized batch at an idle shard: admitted, cannot starve.
	if err := svc.acquireIngest(m1, 100000); err != nil {
		t.Fatalf("oversized batch at idle shard refused: %v", err)
	}
	svc.releaseIngest(m1, 100000)
}

// TestDrainRefusesNewSessions: after BeginDrain, a new ingest handshake is
// answered with a parting VerdictDraining and a new query session gets the
// same verdict addressed to its first request — typed, retryable, counted.
func TestDrainRefusesNewSessions(t *testing.T) {
	svc, addr := startService(t, 2)
	svc.BeginDrain()

	// Ingest: handshake, then the typed parting frame, then close.
	conn := rawConn(t, addr)
	if err := transport.WriteHandshakeFlags(conn, 1, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	fr := transport.NewFrameReader(conn)
	expectRefusal(t, fr, 0, transport.ErrServerDraining)
	waitSessionErr(t, svc, ErrDraining)
	expectClosed(t, conn)

	// Query: the first request is answered with the draining verdict.
	qconn := rawConn(t, addr)
	req := transport.QueryRequest{ID: 42, Op: transport.OpCount, MeterID: 1, T0: 0, T1: 100}
	if _, err := qconn.Write(transport.AppendQueryRequestFrame(nil, req)); err != nil {
		t.Fatal(err)
	}
	expectRefusal(t, transport.NewFrameReader(qconn), 42, transport.ErrServerDraining)
	qconn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().DrainRefusals < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("DrainRefusals = %d, want 2", svc.Stats().DrainRefusals)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHalfClosedConnReapedAndMeterFreed: a peer that FINs its write side
// mid-session (CloseWrite, read side still open) is reaped immediately as
// an abrupt disconnect — not parked until the idle timeout — and its meter
// registration is freed for a clean reconnect.
func TestHalfClosedConnReapedAndMeterFreed(t *testing.T) {
	svc, addr := startService(t, 2)
	const meter uint64 = 13

	conn, _, _ := sequencedDial(t, addr, meter)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitSessionErr(t, svc, io.ErrUnexpectedEOF)
	// The server closes the connection outright; our still-open read side
	// observes it rather than hanging.
	expectClosed(t, conn)
	conn.Close()

	// The reaped registration is free: the meter reconnects and completes.
	conn2, fr2, _ := sequencedDial(t, addr, meter)
	defer conn2.Close()
	table := testTable(t)
	conn2.Write(seqTableFrame(1, table))
	expectAck(t, fr2, 1)
	writeRawFrame(t, conn2, transport.FrameEnd, 0, nil)
	if !svc.AwaitSessions(2, 5*time.Second) {
		t.Fatal("reconnect session never completed")
	}
	for _, err := range svc.SessionErrors() {
		if errors.Is(err, ErrDuplicateMeter) {
			t.Fatalf("half-closed session still holds the meter: %v", err)
		}
	}
}

// TestWriteDeadlineReapsSlowConsumer: a peer that opens a sequenced session
// and then never reads wedges the server's ack write; the write deadline
// fails it, the session tears down, and the reap is counted — instead of a
// goroutine parked forever on a full socket.
func TestWriteDeadlineReapsSlowConsumer(t *testing.T) {
	svc := New(Config{Shards: 2, WriteTimeout: 150 * time.Millisecond})
	t.Cleanup(func() { svc.Close() })
	ln := &stubListener{ch: make(chan acceptResult, 1)}
	serverEnd, clientEnd := net.Pipe() // writes block until the peer reads
	ln.ch <- acceptResult{conn: serverEnd}
	done := make(chan struct{})
	go func() {
		svc.serve(ln, false)
		close(done)
	}()

	if err := transport.WriteHandshakeFlags(clientEnd, 2, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	// Never read: the handshake ack cannot be delivered.
	waitSessionErr(t, svc, os.ErrDeadlineExceeded)
	if n := svc.Stats().WriteDeadlineReaps; n != 1 {
		t.Fatalf("WriteDeadlineReaps = %d, want 1", n)
	}
	clientEnd.Close()
	close(ln.ch)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return on listener close")
	}
}

// TestSessionErrorsBounded: a process that outlives many failed sessions
// keeps only the latest keptSessionErrors of their errors, and counts all.
func TestSessionErrorsBounded(t *testing.T) {
	svc, addr := startService(t, 2)
	const extra = 5
	total := keptSessionErrors + extra
	for i := 0; i < total; i++ {
		conn, _, _ := sequencedDial(t, addr, uint64(1000+i))
		conn.Close() // no 'E': abrupt disconnect
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.SessionErrorCount() < int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("counted %d session errors, want %d", svc.SessionErrorCount(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	errs := svc.SessionErrors()
	if len(errs) != keptSessionErrors {
		t.Fatalf("kept %d session errors, want %d", len(errs), keptSessionErrors)
	}
	for _, err := range errs {
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("kept error %v, want an abrupt disconnect", err)
		}
	}
	if n := svc.SessionErrorCount(); n != int64(total) {
		t.Fatalf("counted %d session errors, want %d", n, total)
	}
}
