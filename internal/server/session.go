package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"symmeter/internal/transport"
)

// countingReader counts bytes as they come off the connection so the
// service can report bytes-on-wire without the transport layer knowing.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// idleReader arms the connection's read deadline before every Read, so the
// idle clock restarts on each byte of progress. A peer that stalls longer
// than the timeout surfaces os.ErrDeadlineExceeded (inside a *net.OpError)
// to whichever decode loop is reading, which tears the session down and —
// for ingest — frees the meter ID for a reconnect.
type idleReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (ir *idleReader) Read(p []byte) (int, error) {
	if err := ir.conn.SetReadDeadline(time.Now().Add(ir.timeout)); err != nil {
		return 0, err
	}
	return ir.conn.Read(p)
}

// runSession drives one accepted ingest connection end to end: handshake,
// meter registration, then the decode loop. The caller (handleConn) owns
// buffering, byte counting and any idle deadline; r is the ready-to-read
// stream (conn is only written to — acks and per-batch refusals). It returns
// the number of symbols ingested and a nil error only for an orderly
// 'E'-terminated stream.
//
// The client numbers its own 'U'/'D' frames: the handshake is answered with
// an 'A' frame carrying the meter's committed high-water mark (so a
// reconnecting client replays only unacked batches), every committed or
// duplicate-suppressed frame is acked with its seq, and a retryable refusal —
// degraded storage, overload — is answered with a per-batch 'X' frame
// (id = refused seq) that keeps the session, so the client backs off and
// resends the same seq. A sequence gap, a frame outside the protocol
// alphabet or a transport failure tears the session down.
//
// Failure isolation is the point of the structure: every store write is a
// single shard-locked call, so an error at any point — torn frame, abrupt
// disconnect, bad table — tears down only this session. State committed by
// earlier batches stays readable and the shard lock is never held across a
// network read, so a dying session cannot poison its shard.
func (s *Service) runSession(conn net.Conn, r io.Reader) (symbols int64, err error) {
	hs, err := transport.ReadHandshake(r)
	if err != nil {
		return 0, err
	}
	meterID := hs.MeterID
	if s.draining.Load() {
		s.met.drainRefusals.Inc()
		return 0, fmt.Errorf("%w: meter %d", ErrDraining, meterID)
	}
	if err := s.ingest.StartSession(meterID); err != nil {
		return 0, err
	}
	defer s.ingest.EndSession(meterID)

	hwm := s.ingest.LastSeq(meterID)
	var wbuf []byte
	ack := func(seq uint64) error {
		wbuf = transport.AppendAckFrame(wbuf[:0], seq)
		return s.writeFrame(conn, wbuf)
	}
	dec := transport.NewDecoder(r)
	dec.SetFrameMetrics(s.met.framesIn)
	if hwm > 0 {
		s.met.reconnectReplays.Inc()
		// A committed high-water mark proves a table commit (a fresh meter's
		// first committable frame is necessarily its table), so the resumed
		// stream may open with symbol batches.
		dec.TableEstablished()
	}
	if err := ack(hwm); err != nil {
		return 0, fmt.Errorf("server: meter %d handshake ack: %w", meterID, err)
	}
	for {
		ev, err := dec.Next()
		if errors.Is(err, io.EOF) {
			// Every client sends 'E' before closing; a bare EOF is an abrupt
			// disconnect mid-stream.
			return symbols, fmt.Errorf("server: meter %d disconnected without end frame: %w", meterID, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return symbols, fmt.Errorf("server: meter %d: %w", meterID, err)
		}
		if ev.Type == transport.FrameEnd {
			return symbols, nil
		}
		n, dup, err := s.commit(meterID, ev)
		if err != nil {
			// A refusal before anything committed keeps the session (and the
			// client's right to resend this seq); a partial commit cannot be
			// retried under the same seq and tears down.
			if n == 0 && retryableRefusal(err) {
				wbuf = transport.AppendQueryErrorFrame(wbuf[:0], ev.Seq, ingestVerdictCode(err), err.Error())
				if werr := s.writeFrame(conn, wbuf); werr != nil {
					return symbols, fmt.Errorf("server: meter %d refusal write: %w", meterID, werr)
				}
				continue
			}
			return symbols, err
		}
		if dup {
			s.met.duplicateBatches.Inc()
		}
		symbols += int64(n)
		if err := ack(ev.Seq); err != nil {
			return symbols, fmt.Errorf("server: meter %d ack write: %w", meterID, err)
		}
	}
}

// commit writes one decoded table or symbol batch as the meter's ev.Seq-th
// frame, a batch under its shard's admission budget.
func (s *Service) commit(meterID uint64, ev transport.Event) (n int, dup bool, err error) {
	if ev.Table != nil {
		dup, err = s.ingest.PushTableSeq(meterID, ev.Seq, ev.Table)
		return 0, dup, err
	}
	cost := int64(len(ev.Points)) * pointWireCost
	if err := s.acquireIngest(meterID, cost); err != nil {
		return 0, false, err
	}
	start := time.Now()
	n, dup, err = s.ingest.AppendSeq(meterID, ev.Seq, ev.Points)
	s.met.ingestBatchLat.Since(start)
	s.releaseIngest(meterID, cost)
	return n, dup, err
}

// retryableRefusal reports whether an ingest error is a typed
// nothing-was-written refusal a session survives (the client
// resends the same seq after backoff).
func retryableRefusal(err error) bool {
	return errors.Is(err, ErrDegraded) || errors.Is(err, ErrOverloaded)
}
