package server

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"symmeter/internal/transport"
)

// handlerFunc adapts a function to QueryHandler for stub handlers — the
// real executor (query.Engine) lives a package up the import graph, so
// in-package tests script the handler and test the session machinery.
type handlerFunc func(req transport.QueryRequest, res *transport.QueryResult) error

func (f handlerFunc) ServeQuery(req transport.QueryRequest, res *transport.QueryResult) error {
	return f(req, res)
}

// echoHandler answers every request with Count = MeterID — enough to check
// dispatch, correlation and encoding without a store.
func echoHandler(req transport.QueryRequest, res *transport.QueryResult) error {
	*res = transport.QueryResult{ID: req.ID, Op: transport.OpCount, Count: req.MeterID}
	return nil
}

// startQueryService spins up a service with the given handler on an
// ephemeral port.
func startQueryService(t *testing.T, cfg Config, h QueryHandler) (*Service, string) {
	t.Helper()
	svc := New(cfg)
	if h != nil {
		svc.SetQueryHandler(h)
	}
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr.String()
}

// sendQuery writes one well-formed request frame.
func sendQuery(t *testing.T, conn net.Conn, req transport.QueryRequest) {
	t.Helper()
	if _, err := conn.Write(transport.AppendQueryRequestFrame(nil, req)); err != nil {
		t.Fatal(err)
	}
}

// readResponse reads and decodes one response frame.
func readResponse(t *testing.T, fr *transport.FrameReader, res *transport.QueryResult) error {
	t.Helper()
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	return transport.DecodeQueryResponse(typ, payload, res)
}

// TestQuerySessionPipelined sends several requests down one connection and
// checks each comes back correlated, then ends the session orderly with 'E'.
func TestQuerySessionPipelined(t *testing.T) {
	svc, addr := startQueryService(t, Config{Shards: 2}, handlerFunc(echoHandler))
	conn := rawConn(t, addr)
	const n = 8
	for i := uint64(1); i <= n; i++ {
		sendQuery(t, conn, transport.QueryRequest{ID: i, Op: transport.OpCount, MeterID: i * 10, T0: 0, T1: 100})
	}
	fr := transport.NewFrameReader(conn)
	seen := make(map[uint64]uint64, n)
	var res transport.QueryResult
	for i := 0; i < n; i++ {
		if err := readResponse(t, fr, &res); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		seen[res.ID] = res.Count
	}
	for i := uint64(1); i <= n; i++ {
		if seen[i] != i*10 {
			t.Fatalf("response for id %d = %d, want %d", i, seen[i], i*10)
		}
	}
	writeRawFrame(t, conn, transport.FrameEnd, 0, nil)
	expectClosed(t, conn)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if st.ActiveQueries == 0 && st.QuerySessions == 1 {
			if st.Sessions != 0 {
				t.Fatalf("query session counted as ingest: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query session never finished: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
}

// TestQueryConcurrencyBounded proves per-connection backpressure: a
// connection's requests are answered one at a time, so with every request
// blocked in the handler at most 1 is ever executing no matter how many the
// client pipelines.
func TestQueryConcurrencyBounded(t *testing.T) {
	const bound = 1
	var inflight, maxInflight atomic.Int64
	release := make(chan struct{})
	blocking := handlerFunc(func(req transport.QueryRequest, res *transport.QueryResult) error {
		cur := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if cur <= m || maxInflight.CompareAndSwap(m, cur) {
				break
			}
		}
		<-release
		inflight.Add(-1)
		*res = transport.QueryResult{ID: req.ID, Op: transport.OpCount}
		return nil
	})
	_, addr := startQueryService(t, Config{Shards: 2}, blocking)
	conn := rawConn(t, addr)
	const n = 6
	for i := uint64(1); i <= n; i++ {
		sendQuery(t, conn, transport.QueryRequest{ID: i, Op: transport.OpCount, T0: 0, T1: 1})
	}
	// Wait for the pool to saturate, then give extra requests every chance
	// to (incorrectly) start executing.
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Load() < bound {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: inflight = %d", inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := maxInflight.Load(); got != bound {
		t.Fatalf("max in-flight = %d, want %d", got, bound)
	}
	close(release)
	fr := transport.NewFrameReader(conn)
	var res transport.QueryResult
	for i := 0; i < n; i++ {
		if err := readResponse(t, fr, &res); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	if got := maxInflight.Load(); got != bound {
		t.Fatalf("max in-flight after drain = %d, want %d", got, bound)
	}
}

// TestQueryConnectionOneGoroutine pins the cost of an idle query
// connection: after one round trip each, 16 open connections hold fewer
// than 2 server goroutines apiece — the session's own, and no pool.
func TestQueryConnectionOneGoroutine(t *testing.T) {
	_, addr := startQueryService(t, Config{Shards: 2}, handlerFunc(echoHandler))
	const conns = 16
	before := runtime.NumGoroutine()
	var res transport.QueryResult
	for i := uint64(1); i <= conns; i++ {
		conn := rawConn(t, addr)
		sendQuery(t, conn, transport.QueryRequest{ID: i, Op: transport.OpCount, MeterID: i, T0: 0, T1: 1})
		if err := readResponse(t, transport.NewFrameReader(conn), &res); err != nil || res.ID != i {
			t.Fatalf("connection %d: id=%d err=%v", i, res.ID, err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= 2*conns {
		t.Fatalf("%d idle query connections grew the goroutine count by %d, want < %d", conns, grew, 2*conns)
	}
}

// TestQueryMalformedRequest: a truncated 'Q' payload still gets a typed
// error response addressed to the extractable id, then the session dies.
func TestQueryMalformedRequest(t *testing.T) {
	svc, addr := startQueryService(t, Config{Shards: 2}, handlerFunc(echoHandler))
	conn := rawConn(t, addr)
	full := transport.AppendQueryRequestFrame(nil, transport.QueryRequest{ID: 77, Op: transport.OpSum, T0: 0, T1: 1})
	// Deliver only the first 11 payload bytes (version|op|flags|id): enough
	// to extract the id, not enough to be a request.
	writeRawFrame(t, conn, transport.FrameQuery, 11, full[5:16])

	fr := transport.NewFrameReader(conn)
	var res transport.QueryResult
	err := readResponse(t, fr, &res)
	if res.ID != 77 {
		t.Fatalf("error response id = %d, want 77", res.ID)
	}
	var qe *transport.QueryError
	if !errors.As(err, &qe) || qe.Code != transport.QErrBadRequest {
		t.Fatalf("err = %v, want QErrBadRequest", err)
	}
	waitSessionErr(t, svc, transport.ErrBadQueryFrame)
	expectClosed(t, conn)
}

// TestQueryVersionMismatch: a request from a future protocol version is
// answered with QErrVersion, not guessed at.
func TestQueryVersionMismatch(t *testing.T) {
	svc, addr := startQueryService(t, Config{Shards: 2}, handlerFunc(echoHandler))
	conn := rawConn(t, addr)
	full := transport.AppendQueryRequestFrame(nil, transport.QueryRequest{ID: 5, Op: transport.OpSum, T0: 0, T1: 1})
	full[5] = 99 // payload byte 0: version
	if _, err := conn.Write(full); err != nil {
		t.Fatal(err)
	}
	fr := transport.NewFrameReader(conn)
	var res transport.QueryResult
	err := readResponse(t, fr, &res)
	if res.ID != 5 || !errors.Is(err, transport.ErrQueryVersionMismatch) {
		t.Fatalf("id=%d err=%v", res.ID, err)
	}
	waitSessionErr(t, svc, transport.ErrQueryVersionMismatch)
	expectClosed(t, conn)
}

// TestQueryUnknownFrameKillsSession: an ingest frame mid-query-session is a
// protocol violation that tears the session down.
func TestQueryUnknownFrameKillsSession(t *testing.T) {
	svc, addr := startQueryService(t, Config{Shards: 2}, handlerFunc(echoHandler))
	conn := rawConn(t, addr)
	sendQuery(t, conn, transport.QueryRequest{ID: 1, Op: transport.OpCount, T0: 0, T1: 1})
	fr := transport.NewFrameReader(conn)
	var res transport.QueryResult
	if err := readResponse(t, fr, &res); err != nil || res.ID != 1 {
		t.Fatalf("first response: id=%d err=%v", res.ID, err)
	}
	writeRawFrame(t, conn, transport.FrameSeqTable, 0, nil)
	waitSessionErr(t, svc, transport.ErrUnknownFrame)
	expectClosed(t, conn)
}

// TestQueryOversizedFrameRejected: a query frame header claiming more than
// MaxFrame is rejected from the header alone.
func TestQueryOversizedFrameRejected(t *testing.T) {
	svc, addr := startQueryService(t, Config{Shards: 2}, handlerFunc(echoHandler))
	conn := rawConn(t, addr)
	writeRawFrame(t, conn, transport.FrameQuery, transport.MaxFrame+1, nil)
	waitSessionErr(t, svc, transport.ErrFrameTooLarge)
	expectClosed(t, conn)
}

// TestQueryOnlyListenerRefusesIngest: the dedicated query listener serves
// queries and refuses ingest streams.
func TestQueryOnlyListenerRefusesIngest(t *testing.T) {
	svc := New(Config{Shards: 2})
	svc.SetQueryHandler(handlerFunc(echoHandler))
	qaddr, err := svc.ListenQuery("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	// Ingest handshake on the query port: refused, no meter registered.
	bad := rawConn(t, qaddr.String())
	if err := transport.WriteHandshakeFlags(bad, 3, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	waitSessionErr(t, svc, transport.ErrUnknownFrame)
	expectClosed(t, bad)
	if _, ok := svc.Store().Snapshot(3); ok {
		t.Fatal("refused ingest stream still registered a meter")
	}

	// A query on the same port works.
	good := rawConn(t, qaddr.String())
	sendQuery(t, good, transport.QueryRequest{ID: 2, Op: transport.OpCount, MeterID: 40, T0: 0, T1: 1})
	fr := transport.NewFrameReader(good)
	var res transport.QueryResult
	if err := readResponse(t, fr, &res); err != nil || res.Count != 40 {
		t.Fatalf("query on query port: count=%d err=%v", res.Count, err)
	}
}

// TestQueryWithoutHandler: query connections on a service with no handler
// installed get a typed internal error instead of a hang or a silent close.
func TestQueryWithoutHandler(t *testing.T) {
	_, addr := startQueryService(t, Config{Shards: 2}, nil)
	conn := rawConn(t, addr)
	sendQuery(t, conn, transport.QueryRequest{ID: 6, Op: transport.OpCount, T0: 0, T1: 1})
	fr := transport.NewFrameReader(conn)
	var res transport.QueryResult
	err := readResponse(t, fr, &res)
	var qe *transport.QueryError
	if res.ID != 6 || !errors.As(err, &qe) || qe.Code != transport.QErrInternal {
		t.Fatalf("id=%d err=%v", res.ID, err)
	}
}

// TestQueryClientKilledMidQuery kills the client while its request is still
// executing and checks the service reaps the session and keeps serving —
// the reaper path the CI smoke job exercises under -race.
func TestQueryClientKilledMidQuery(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	blocking := handlerFunc(func(req transport.QueryRequest, res *transport.QueryResult) error {
		started <- struct{}{}
		<-release
		*res = transport.QueryResult{ID: req.ID, Op: transport.OpCount}
		return nil
	})
	svc, addr := startQueryService(t, Config{Shards: 2}, blocking)

	conn := rawConn(t, addr)
	sendQuery(t, conn, transport.QueryRequest{ID: 1, Op: transport.OpCount, T0: 0, T1: 1})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}
	conn.Close() // mid-query kill
	close(release)

	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().ActiveQueries != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("killed query session never reaped: %+v", svc.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The service still answers new connections.
	c2 := rawConn(t, addr)
	sendQuery(t, c2, transport.QueryRequest{ID: 2, Op: transport.OpCount, T0: 0, T1: 1})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("service dead after mid-query kill")
	}
	fr := transport.NewFrameReader(c2)
	var res transport.QueryResult
	if err := readResponse(t, fr, &res); err != nil || res.ID != 2 {
		t.Fatalf("post-kill query: id=%d err=%v", res.ID, err)
	}
}
