package server

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// acceptResult is one scripted Accept outcome for stubListener.
type acceptResult struct {
	conn net.Conn
	err  error
}

// stubListener feeds the accept loop a script of failures and connections —
// the regression harness for the "any Accept error kills the loop" bug.
type stubListener struct {
	ch chan acceptResult
}

func (l *stubListener) Accept() (net.Conn, error) {
	r, ok := <-l.ch
	if !ok {
		return nil, net.ErrClosed
	}
	return r.conn, r.err
}

func (l *stubListener) Close() error   { return nil }
func (l *stubListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestAcceptLoopSurvivesTransientErrors proves the accept loop retries
// transient failures (ECONNABORTED, EMFILE, ...) with backoff instead of
// returning — a session arriving after a burst of errors is still served.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	svc := New(Config{Shards: 2})
	t.Cleanup(func() { svc.Close() })
	ln := &stubListener{ch: make(chan acceptResult, 8)}
	for i := 0; i < 3; i++ {
		ln.ch <- acceptResult{err: errors.New("accept: connection aborted")}
	}
	serverEnd, clientEnd := net.Pipe()
	ln.ch <- acceptResult{conn: serverEnd}

	done := make(chan struct{})
	go func() {
		svc.serve(ln, false)
		close(done)
	}()

	// The session after the error burst must run normally end to end. The
	// pipe is synchronous, so the handshake ack is read before the end frame
	// goes out.
	if err := transport.WriteHandshakeFlags(clientEnd, 1, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	expectAck(t, transport.NewFrameReader(clientEnd), 0)
	writeRawFrame(t, clientEnd, transport.FrameEnd, 0, nil)
	if !svc.AwaitSessions(1, 5*time.Second) {
		t.Fatal("session after transient accept errors never completed")
	}
	clientEnd.Close()

	st := svc.Stats()
	if st.AcceptRetries != 3 {
		t.Fatalf("accept retries = %d, want 3", st.AcceptRetries)
	}
	if st.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", st.Sessions)
	}
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}

	// Only a closed listener ends the loop.
	close(ln.ch)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return on listener close")
	}
}

// TestIdleSessionReapedAndMeterFreed proves the idle-timeout fix: a client
// that goes silent is reaped (instead of parking its goroutine forever) and
// its meter ID becomes connectable again.
func TestIdleSessionReapedAndMeterFreed(t *testing.T) {
	svc := New(Config{Shards: 2, IdleTimeout: 100 * time.Millisecond})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	const meter uint64 = 9
	// Session registered (the handshake is acked), then the client goes
	// silent.
	conn, _, _ := sequencedDial(t, addr.String(), meter)
	waitSessionErr(t, svc, os.ErrDeadlineExceeded)
	expectClosed(t, conn)

	// The reaped session released its registration: the meter reconnects and
	// completes a clean second session.
	c2, fr2, _ := sequencedDial(t, addr.String(), meter)
	table := testTable(t)
	c2.Write(seqTableFrame(1, table))
	expectAck(t, fr2, 1)
	c2.Write(seqBatchFrame(t, 2, 60, 60, []symbolic.Symbol{table.Encode(100), table.Encode(100)}))
	expectAck(t, fr2, 2)
	writeRawFrame(t, c2, transport.FrameEnd, 0, nil)
	c2.Close()
	if !svc.AwaitSessions(2, 10*time.Second) {
		t.Fatal("reconnect session never completed")
	}
	for _, err := range svc.SessionErrors() {
		if errors.Is(err, ErrDuplicateMeter) {
			t.Fatalf("reconnect hit ErrDuplicateMeter: %v", err)
		}
	}
	st, _ := svc.Store().Snapshot(meter)
	if st.Sessions != 2 || len(st.Points) != 2 {
		t.Fatalf("meter after reconnect: %d sessions, %d points", st.Sessions, len(st.Points))
	}
}

// TestIdleTimeoutRefreshedPerFrame proves steady traffic keeps a session
// alive well past the idle timeout — the deadline is per-read, not
// per-connection. The session lives 3× the timeout while never going silent
// for more than about a twentieth of it, so a loaded machine that delays a
// frame by several gaps still does not reap it.
func TestIdleTimeoutRefreshedPerFrame(t *testing.T) {
	const idle = 400 * time.Millisecond
	svc := New(Config{Shards: 2, IdleTimeout: idle})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	conn, fr, _ := sequencedDial(t, addr.String(), 4)
	table := testTable(t)
	conn.Write(seqTableFrame(1, table))
	expectAck(t, fr, 1)
	// Stream one window every ~20ms for 3× the idle timeout.
	start := time.Now()
	seq := uint64(1)
	for time.Since(start) < 3*idle {
		seq++
		conn.Write(seqBatchFrame(t, seq, int64(seq)*60, 60, []symbolic.Symbol{table.Encode(100)}))
		expectAck(t, fr, seq)
		time.Sleep(20 * time.Millisecond)
	}
	writeRawFrame(t, conn, transport.FrameEnd, 0, nil)
	conn.Close()
	if !svc.AwaitSessions(1, 10*time.Second) {
		t.Fatal("session never completed")
	}
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("live session reaped: %v", errs)
	}
}
