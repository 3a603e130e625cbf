package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// startService listens on an ephemeral port and cleans up with the test.
func startService(t *testing.T, shards int) (*Service, string) {
	t.Helper()
	svc := New(Config{Shards: shards})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr.String()
}

// waitSessionErr polls until the service records an error matching target.
func waitSessionErr(t *testing.T, svc *Service, target error) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, err := range svc.SessionErrors() {
			if errors.Is(err, target) {
				return err
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no session error matching %v; have %v", target, svc.SessionErrors())
	return nil
}

// rawConn dials and returns a connection for hand-crafted frames.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// writeRawFrame emits an arbitrary frame header + payload prefix, for
// protocol-abuse tests.
func writeRawFrame(t *testing.T, w io.Writer, typ byte, claimLen uint32, payload []byte) {
	t.Helper()
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], claimLen)
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
}

// expectClosed asserts the server hangs up on us (no hang: bounded by a
// read deadline).
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected server to close the connection")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server hung instead of closing the connection")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	svc, addr := startService(t, 2)
	conn := rawConn(t, addr)
	payload := make([]byte, 10)
	payload[0] = 99 // future protocol version
	payload[1] = transport.FlagSequenced
	binary.BigEndian.PutUint64(payload[2:], 1)
	writeRawFrame(t, conn, transport.FrameHandshake, 10, payload)
	waitSessionErr(t, svc, transport.ErrVersionMismatch)
	expectClosed(t, conn)
}

func TestTruncatedHandshakeRejected(t *testing.T) {
	svc, addr := startService(t, 2)
	conn := rawConn(t, addr)
	// Claim 9 payload bytes, deliver 3, hang up.
	writeRawFrame(t, conn, transport.FrameHandshake, 9, []byte{transport.ProtocolVersion, 0, 0})
	conn.(*net.TCPConn).CloseWrite()
	err := waitSessionErr(t, svc, transport.ErrBadHandshake)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v does not wrap ErrUnexpectedEOF", err)
	}
}

func TestShortHandshakePayloadRejected(t *testing.T) {
	svc, addr := startService(t, 2)
	conn := rawConn(t, addr)
	// A complete frame whose payload is simply too short to be a handshake.
	writeRawFrame(t, conn, transport.FrameHandshake, 3, []byte{transport.ProtocolVersion, 0, 0})
	waitSessionErr(t, svc, transport.ErrBadHandshake)
	expectClosed(t, conn)
}

func TestOversizedFrameRejected(t *testing.T) {
	svc, addr := startService(t, 2)
	conn, _, _ := sequencedDial(t, addr, 42)
	// Header claims a payload beyond MaxFrame; no bytes follow. The server
	// must reject from the header alone rather than waiting for data.
	writeRawFrame(t, conn, transport.FrameSeqTable, transport.MaxFrame+1, nil)
	waitSessionErr(t, svc, transport.ErrFrameTooLarge)
	expectClosed(t, conn)
}

func TestDuplicateMeterRejected(t *testing.T) {
	svc, addr := startService(t, 2)
	// The handshake ack proves the first session is registered before the
	// second races it.
	first, firstFR, _ := sequencedDial(t, addr, 5)

	second := rawConn(t, addr)
	if err := transport.WriteHandshakeFlags(second, 5, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	waitSessionErr(t, svc, ErrDuplicateMeter)
	// The refusal is typed now: a parting 'X' frame with VerdictBusy tells
	// the client the meter has a live session (retryable after reap), then
	// the connection closes.
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := transport.NewFrameReader(second)
	typ, payload, err := fr.Next()
	if err != nil || typ != transport.FrameQueryError {
		t.Fatalf("parting frame: typ=%#x err=%v", typ, err)
	}
	var res transport.QueryResult
	var qe *transport.QueryError
	if err := transport.DecodeQueryResponse(typ, payload, &res); !errors.As(err, &qe) || qe.Code != transport.VerdictBusy {
		t.Fatalf("parting verdict: err=%v", err)
	}
	expectClosed(t, second)

	// The original session is unaffected: it can still finish cleanly.
	table := testTable(t)
	first.Write(seqTableFrame(1, table))
	expectAck(t, firstFR, 1)
	first.Write(seqBatchFrame(t, 2, 60, 60, []symbolic.Symbol{table.Encode(100), table.Encode(100)}))
	expectAck(t, firstFR, 2)
	writeRawFrame(t, first, transport.FrameEnd, 0, nil)
	first.Close()
	if !svc.AwaitSessions(2, 10*time.Second) {
		t.Fatal("sessions did not finish")
	}
	st, _ := svc.Store().Snapshot(5)
	if len(st.Points) != 2 {
		t.Fatalf("meter 5 points = %d, want 2", len(st.Points))
	}
}

// TestAbruptDisconnectMidBatch kills a connection inside a symbol frame and
// verifies the session is torn down without poisoning its shard: committed
// state survives, the same meter can reconnect, and an unrelated meter on
// the same shard streams through untouched.
func TestAbruptDisconnectMidBatch(t *testing.T) {
	svc, addr := startService(t, 2)
	table := testTable(t)

	const victim uint64 = 7
	conn, fr, _ := sequencedDial(t, addr, victim)
	// One complete window commits one batch...
	conn.Write(seqTableFrame(1, table))
	expectAck(t, fr, 1)
	conn.Write(seqBatchFrame(t, 2, 60, 60, []symbolic.Symbol{table.Encode(250)}))
	expectAck(t, fr, 2)
	// ...then a torn frame: a symbol header claiming 64 bytes, 4 delivered.
	writeRawFrame(t, conn, transport.FrameSeqSymbol, 64, []byte{0, 0, 0, 0})
	conn.Close()
	waitSessionErr(t, svc, io.ErrUnexpectedEOF)

	// Committed state survived the teardown.
	st, ok := svc.Store().Snapshot(victim)
	if !ok || len(st.Points) != 1 {
		t.Fatalf("victim snapshot = %+v ok=%v, want 1 committed point", st, ok)
	}

	// Another meter on the same shard, and the victim itself, both stream
	// fine afterwards.
	sameShard := victim + 1
	for svc.Store().ShardFor(sameShard) != svc.Store().ShardFor(victim) {
		sameShard++
	}
	syms := []symbolic.Symbol{table.Encode(500), table.Encode(500), table.Encode(500)}
	for _, id := range []uint64{sameShard, victim} {
		c, cfr, hwm := sequencedDial(t, addr, id)
		if hwm == 0 {
			c.Write(seqTableFrame(1, table))
			expectAck(t, cfr, 1)
			hwm = 1
		}
		c.Write(seqBatchFrame(t, hwm+1, 1020, 60, syms))
		expectAck(t, cfr, hwm+1)
		writeRawFrame(t, c, transport.FrameEnd, 0, nil)
		c.Close()
	}
	if !svc.AwaitSessions(3, 10*time.Second) {
		t.Fatal("sessions did not finish")
	}
	// Windows ending at 1020, 1080 and 1140 → 3 symbols per clean session;
	// the victim resumes on its committed table.
	st, _ = svc.Store().Snapshot(victim)
	if len(st.Points) != 1+3 || st.Sessions != 2 {
		t.Fatalf("victim after reconnect: %d points, %d sessions", len(st.Points), st.Sessions)
	}
	if st2, _ := svc.Store().Snapshot(sameShard); len(st2.Points) != 3 {
		t.Fatalf("shard-mate points = %d, want 3", len(st2.Points))
	}
}

// TestCloseInterruptsIdleSessions makes sure Close does not wait on a
// connection that is sitting in a blocking read.
func TestCloseInterruptsIdleSessions(t *testing.T) {
	svc, addr := startService(t, 2)
	// Once the handshake is acked the session is blocked in its frame read.
	sequencedDial(t, addr, 11)
	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle session")
	}
}
