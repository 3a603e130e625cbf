package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"symmeter/internal/transport"
)

// runQuerySession drives one accepted query connection: a stream of 'Q'
// frames, each answered with exactly one 'R' or 'X' frame carrying the
// request's id. It returns nil for an orderly end — an 'E' frame or a clean
// EOF between frames (query clients, unlike sensors, may simply close).
//
// Each request is decoded, executed and answered on this goroutine, one at
// a time and in arrival order, into one reused result and encode buffer, so
// the steady-state path allocates nothing and an idle connection costs one
// goroutine. A client may still pipeline; the id correlates. One that
// pipelines but stops reading answers stops being read (TCP is the
// backpressure), and the write deadline (writeFrame) reaps it instead of
// wedging the session forever.
func (s *Service) runQuerySession(conn net.Conn, br *bufio.Reader) error {
	fr := transport.NewFrameReader(br)
	if s.draining.Load() {
		// Graceful drain: a new query session gets a typed, retryable
		// refusal addressed to its first request instead of a bare close.
		s.met.drainRefusals.Inc()
		typ, payload, err := fr.Next()
		if err != nil || typ != transport.FrameQuery {
			return nil
		}
		req, _ := transport.DecodeQueryRequest(payload) // best-effort id extraction
		// Best effort: the session ends here whether or not the refusal lands.
		_ = s.writeFrame(conn, transport.AppendQueryErrorFrame(nil, req.ID, transport.VerdictDraining, ErrDraining.Error()))
		return nil
	}

	fr.SetMetrics(s.met.framesIn)
	var res transport.QueryResult
	var buf []byte
	for {
		typ, payload, err := fr.Next()
		switch {
		case errors.Is(err, io.EOF):
			return nil
		case err != nil:
			return fmt.Errorf("server: query session: %w", err)
		case typ == transport.FrameEnd:
			return nil
		case typ != transport.FrameQuery:
			return fmt.Errorf("server: query session: %w: %#x", transport.ErrUnknownFrame, typ)
		}
		req, err := transport.DecodeQueryRequest(payload)
		if err != nil {
			// Malformed request: answer with a typed error addressed to
			// whatever id could be extracted, then drop the session — the
			// stream can no longer be trusted to be well-framed. The decode
			// error is the session's verdict, so a failed write adds nothing.
			code := transport.QErrBadRequest
			if errors.Is(err, transport.ErrQueryVersionMismatch) {
				code = transport.QErrVersion
			}
			_ = s.writeFrame(conn, transport.AppendQueryErrorFrame(buf[:0], req.ID, code, err.Error()))
			return fmt.Errorf("server: query session: %w", err)
		}
		if s.queryHandler == nil {
			err = errors.New("server: no query handler configured")
		} else {
			start := time.Now()
			err = s.queryHandler.ServeQuery(req, &res)
			s.met.queryLat.Since(start)
		}
		if err == nil {
			buf, err = transport.AppendQueryResultFrame(buf[:0], &res)
		}
		if err != nil {
			code, msg := transport.QueryErrorCode(err)
			buf = transport.AppendQueryErrorFrame(buf[:0], req.ID, code, msg)
		}
		if err := s.writeFrame(conn, buf); err != nil {
			return fmt.Errorf("server: query response write: %w", err)
		}
	}
}
