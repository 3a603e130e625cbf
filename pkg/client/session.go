package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// SessionConfig tunes a Session's retry and reconnect behavior. The zero
// value is usable: TCP dialing, Backoff defaults, a 10s ack timeout.
type SessionConfig struct {
	// Backoff paces reconnect attempts and per-batch retryable refusals,
	// and bounds the total attempts one operation may consume.
	Backoff Backoff
	// AckTimeout bounds the wait for each server ack. An ack that does not
	// arrive in time is indistinguishable from a lost one, so the session
	// reconnects and lets the handshake's high-water mark disambiguate.
	AckTimeout time.Duration
	// Dialer overrides how connections are made (tests inject
	// netfault-wrapped dialers here); nil means net.Dial("tcp", addr).
	Dialer func(addr string) (net.Conn, error)
}

func (c *SessionConfig) ackTimeout() time.Duration {
	if c.AckTimeout <= 0 {
		return 10 * time.Second
	}
	return c.AckTimeout
}

// Session is a meter's ingest session: it streams lookup tables and symbol
// batches over the sequenced, acknowledged protocol (v2) and commits each
// exactly once, reconnecting as needed. Every PushTable and Append is
// assigned the meter's next sequence number, sent, and held until the
// server's ack for that seq arrives; a transport failure or ack timeout
// tears the connection down, redials under the backoff policy, learns the
// server's committed high-water mark from the handshake reply, and either
// drops the in-flight batch (the server had committed it — the ack was
// lost) or replays it under the same seq (the server dedupes, so a retry
// can never double-commit). A typed retryable refusal — degraded,
// overloaded — keeps the connection and resends the same seq after a
// jittered delay.
//
// When an operation returns nil the batch is durably committed exactly
// once. When it returns an error, the batch is NOT committed (and the
// session is closed): either the error is a non-retryable server verdict,
// or the backoff budget ran out — in both cases the caller knows exactly
// where the stream stopped via Seq.
//
// Like Client, a Session is single-goroutine.
type Session struct {
	addr    string
	meterID uint64
	cfg     SessionConfig

	conn net.Conn
	bw   *bufio.Writer
	fr   *transport.FrameReader

	// seq is the last sequence number assigned; pending holds the one
	// in-flight frame (the protocol is stop-and-wait: a frame is pending
	// from send until its ack, refusal, or reconnect-suppression).
	seq          uint64
	pendingFrame []byte
	buf          []byte

	reconnects  int
	replays     int
	retries     int           // backoff sleeps taken (reconnect waits + refusal re-sends)
	lastBackoff time.Duration // duration of the most recent backoff sleep
	lastErr     error         // most recent transport/refusal cause, for budget-exhausted reporting
	err         error
}

// SessionStats is a point-in-time snapshot of a Session's retry machinery —
// how hard the exactly-once discipline worked to keep the stream alive.
type SessionStats struct {
	// Reconnects counts redials after the initial connect.
	Reconnects int
	// Replays counts in-flight frames resent under their original seq after
	// a reconnect.
	Replays int
	// Retries counts backoff sleeps taken, across reconnect waits and
	// retryable per-batch refusals.
	Retries int
	// LastBackoff is the duration of the most recent backoff sleep (0 if
	// none was ever taken).
	LastBackoff time.Duration
}

// Stats returns the session's retry counters. Sessions are single-goroutine,
// so the snapshot is exact between calls.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Reconnects:  s.reconnects,
		Replays:     s.replays,
		Retries:     s.retries,
		LastBackoff: s.lastBackoff,
	}
}

// backoffSleep takes one jittered backoff delay for attempt i, recording it
// in the session's retry counters.
func (s *Session) backoffSleep(i int) {
	d := s.cfg.Backoff.delay(i)
	s.retries++
	s.lastBackoff = d
	time.Sleep(d)
}

// errHWMRegressed reports a reconnect handshake whose high-water mark is
// below sequence numbers this session already saw acknowledged — acked data
// vanished (an OS crash under a relaxed fsync mode, or a restored backup).
// Exactly-once cannot be patched over that; the caller must decide.
var errHWMRegressed = errors.New("client: server sequence high-water mark regressed below acknowledged batches")

// DialSession connects, performs the sequenced handshake, and adopts the
// server's committed high-water mark as the session's starting sequence —
// a client process restart continues the meter's stream where the server
// says it stopped.
func DialSession(addr string, meterID uint64, cfg SessionConfig) (*Session, error) {
	s := &Session{addr: addr, meterID: meterID, cfg: cfg}
	hwm, err := s.connectRetry(0)
	if err != nil {
		return nil, err
	}
	s.seq = hwm
	return s, nil
}

// MeterID returns the session's meter.
func (s *Session) MeterID() uint64 { return s.meterID }

// Seq returns the last sequence number assigned (equal to the last
// acknowledged one whenever no call is in flight).
func (s *Session) Seq() uint64 { return s.seq }

// dial opens one connection attempt.
func (s *Session) dial() (net.Conn, error) {
	if s.cfg.Dialer != nil {
		return s.cfg.Dialer(s.addr)
	}
	return net.Dial("tcp", s.addr)
}

// connect runs one dial + sequenced handshake, returning the server's
// committed high-water mark from the handshake ack. On any error the
// connection is closed and s.conn stays nil.
func (s *Session) connect() (hwm uint64, err error) {
	conn, err := s.dial()
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(conn)
	fr := transport.NewFrameReader(bufio.NewReader(conn))
	if err := transport.WriteHandshakeFlags(bw, s.meterID, transport.FlagSequenced); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		conn.Close()
		return 0, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ackTimeout())); err != nil {
		conn.Close()
		return 0, err
	}
	typ, payload, err := fr.Next()
	if err != nil {
		conn.Close()
		return 0, fmt.Errorf("client: reading handshake ack: %w", err)
	}
	switch typ {
	case transport.FrameAck:
		hwm, err = transport.DecodeAck(payload)
		if err != nil {
			conn.Close()
			return 0, err
		}
	case transport.FrameQueryError:
		// The server refused the session with a typed verdict (draining,
		// busy meter, degraded start) — surface it; retryable ones are the
		// reconnect loop's to wait out.
		var res transport.QueryResult
		err = transport.DecodeQueryResponse(typ, payload, &res)
		conn.Close()
		var qe *transport.QueryError
		if errors.As(err, &qe) {
			return 0, qe
		}
		return 0, fmt.Errorf("client: undecodable handshake refusal: %v", err)
	default:
		conn.Close()
		return 0, fmt.Errorf("client: unexpected %#x frame as handshake reply", typ)
	}
	conn.SetReadDeadline(time.Time{})
	s.conn, s.bw, s.fr = conn, bw, fr
	return hwm, nil
}

// connectRetry runs connect under the backoff policy, starting at attempt
// number `spent` (so a commit's refusal retries and its reconnects share
// one budget). It validates the learned high-water mark against the
// session's acknowledged history and suppresses or re-arms the pending
// frame accordingly.
func (s *Session) connectRetry(spent int) (hwm uint64, err error) {
	attempts := s.cfg.Backoff.attempts()
	for i := spent; ; i++ {
		hwm, err = s.connect()
		if err == nil {
			break
		}
		// Non-retryable server verdicts are final; everything else —
		// dial errors, torn handshakes, drain/busy verdicts — is the
		// unreliable network this type exists to ride out.
		var qe *transport.QueryError
		if errors.As(err, &qe) && !Retryable(qe) {
			return 0, qe
		}
		if i >= attempts-1 {
			return 0, err
		}
		s.backoffSleep(i)
	}
	if hwm < s.ackedFloor() {
		s.teardown()
		return 0, fmt.Errorf("%w: mark %d, acknowledged through %d", errHWMRegressed, hwm, s.ackedFloor())
	}
	if s.pendingFrame != nil && hwm >= s.seq {
		// The server committed the in-flight batch before the old
		// connection died; the ack was what got lost. Dropping the frame
		// here is the client half of exactly-once.
		s.settle()
	}
	return hwm, nil
}

// settle retires the pending frame (acked or reconnect-suppressed),
// reclaiming its buffer for the next frame's assembly.
func (s *Session) settle() {
	s.buf = s.pendingFrame[:0]
	s.pendingFrame = nil
}

// ackedFloor is the highest seq this session knows the server acknowledged
// — everything below the pending frame, or everything assigned when
// nothing is pending.
func (s *Session) ackedFloor() uint64 {
	if s.pendingFrame != nil {
		return s.seq - 1
	}
	return s.seq
}

func (s *Session) teardown() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// PushTable sends a lookup table under the next sequence number and waits
// for its ack; the first one must precede any batch.
func (s *Session) PushTable(t *symbolic.Table) error {
	if s.err != nil {
		return s.err
	}
	body := symbolic.MarshalTable(t)
	s.seq++
	var hdr [13]byte
	hdr[0] = transport.FrameSeqTable
	binary.BigEndian.PutUint32(hdr[1:5], uint32(8+len(body)))
	binary.BigEndian.PutUint64(hdr[5:13], s.seq)
	s.pendingFrame = append(append(s.buf[:0], hdr[:]...), body...)
	return s.commit()
}

// Append sends one symbol batch — timestamps firstT + i*window, symbols at
// the current table's level — under the next sequence number and waits for
// its ack. A nil return means the batch is durably committed exactly once.
func (s *Session) Append(firstT, window int64, symbols []symbolic.Symbol) error {
	if s.err != nil {
		return s.err
	}
	if len(symbols) == 0 {
		return nil // nothing to make durable; don't spend a seq on it
	}
	s.seq++
	var hdr [29]byte
	hdr[0] = transport.FrameSeqSymbol
	binary.BigEndian.PutUint64(hdr[5:13], s.seq)
	binary.BigEndian.PutUint64(hdr[13:21], uint64(firstT))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(window))
	buf := append(s.buf[:0], hdr[:]...)
	buf, err := symbolic.AppendPack(buf, symbols)
	if err != nil {
		s.seq--
		return err // caller bug (mixed levels); the stream is untouched
	}
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
	s.pendingFrame = buf
	return s.commit()
}

// commit drives the pending frame to an acknowledged state: send, await
// ack; on a retryable refusal back off and resend; on transport trouble
// reconnect and replay (or learn the frame already committed). The backoff
// policy's attempt budget bounds the whole operation.
func (s *Session) commit() error {
	attempts := s.cfg.Backoff.attempts()
	fresh := true // the current connection has not failed this commit yet
	for i := 0; ; i++ {
		if s.pendingFrame == nil {
			return nil // reconnect handshake revealed it was committed
		}
		if i >= attempts {
			s.teardown()
			s.err = fmt.Errorf("client: seq %d not committed after %d attempts: %w", s.seq, attempts, s.lastErr)
			return s.err
		}
		if s.conn == nil {
			if _, err := s.connectRetry(i); err != nil {
				s.err = err
				return err
			}
			if s.pendingFrame == nil {
				return nil
			}
			s.replays++
			fresh = true
		}
		if err := s.sendPending(); err != nil {
			s.lastErr = err
			s.teardown()
			s.reconnects++
			if !fresh {
				s.backoffSleep(i)
			}
			fresh = false
			continue
		}
		ok, err := s.awaitAck()
		if ok {
			s.settle()
			return nil
		}
		s.lastErr = err
		var qe *transport.QueryError
		if errors.As(err, &qe) {
			if !Retryable(qe) {
				s.teardown()
				s.err = qe
				return qe
			}
			// Refusal: connection healthy, server waiting. Same seq after
			// a jittered delay.
			s.backoffSleep(i)
			continue
		}
		// Transport trouble or timeout: the ack may be lost or late; only
		// a fresh handshake can tell. Reconnect.
		s.teardown()
		s.reconnects++
	}
}

// sendPending writes and flushes the pending frame.
func (s *Session) sendPending() error {
	if _, err := s.bw.Write(s.pendingFrame); err != nil {
		return err
	}
	return s.bw.Flush()
}

// awaitAck reads the server's answer for the pending seq: (true, nil) on
// its ack, (false, *QueryError) on a typed refusal addressed to it, and
// (false, err) for anything that desynchronizes the stream.
func (s *Session) awaitAck() (bool, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(s.cfg.ackTimeout())); err != nil {
		return false, err
	}
	typ, payload, err := s.fr.Next()
	if err != nil {
		return false, err
	}
	switch typ {
	case transport.FrameAck:
		seq, err := transport.DecodeAck(payload)
		if err != nil {
			return false, err
		}
		if seq != s.seq {
			return false, fmt.Errorf("client: ack for seq %d while %d in flight", seq, s.seq)
		}
		return true, nil
	case transport.FrameQueryError:
		var res transport.QueryResult
		derr := transport.DecodeQueryResponse(typ, payload, &res)
		var qe *transport.QueryError
		if !errors.As(derr, &qe) {
			return false, fmt.Errorf("client: undecodable refusal frame: %v", derr)
		}
		if res.ID != s.seq {
			return false, fmt.Errorf("client: refusal for seq %d while %d in flight", res.ID, s.seq)
		}
		return false, qe
	}
	return false, fmt.Errorf("client: unexpected %#x frame while awaiting ack", typ)
}

// Close ends the stream (best-effort 'E' frame — every batch is already
// individually acknowledged, so there is no verdict to wait for) and
// closes the connection.
func (s *Session) Close() error {
	if s.conn == nil {
		if s.err == nil {
			s.err = errors.New("client: session closed")
		}
		return nil
	}
	s.bw.Write([]byte{transport.FrameEnd, 0, 0, 0, 0})
	s.bw.Flush()
	err := s.conn.Close()
	s.conn = nil
	if s.err == nil {
		s.err = errors.New("client: session closed")
	}
	return err
}

// Backoff retries an operation while the server answers with a typed
// retryable refusal — degraded storage, shard overload, graceful drain, or
// a still-registered meter (see Retryable): at most Attempts tries with
// full-jitter exponential delay, each sleep drawn uniformly from
// [0, min(Max, Min·2ⁱ)]. Zero fields pick defaults (10ms, 1s, 10). Any
// other error — including success — returns immediately: only the typed
// "retry later, nothing was written" verdicts are worth waiting out. The
// jitter is what keeps a refused fleet from reconverging in lockstep: an
// overloaded shard that refuses a thousand sensors at once must not get all
// thousand back on the same tick.
type Backoff struct {
	Min      time.Duration
	Max      time.Duration
	Attempts int
}

func (b Backoff) attempts() int {
	if b.Attempts <= 0 {
		return 10
	}
	return b.Attempts
}

// delay returns the full-jitter sleep before retry attempt i (0-based).
func (b Backoff) delay(i int) time.Duration {
	min, max := b.Min, b.Max
	if min <= 0 {
		min = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	cap := min << uint(i)
	if cap > max || cap <= 0 { // <= 0: shift overflow
		cap = max
	}
	return time.Duration(rand.Int64N(int64(cap) + 1))
}

// Retry runs fn under the backoff policy and returns its last error.
func (b Backoff) Retry(fn func() error) error {
	attempts := b.attempts()
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil || !Retryable(err) {
			return err
		}
		if i == attempts-1 {
			break
		}
		time.Sleep(b.delay(i))
	}
	return err
}
