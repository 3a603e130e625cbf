package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"symmeter/internal/metrics"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// Config sizes a Service.
type Config struct {
	// Shards is the store's lock-domain count; 0 picks a default of 16.
	Shards int
	// Store, when non-nil, is used instead of a fresh store — the recovery
	// path: a durability layer rebuilds the store from disk and hands it to
	// the service (Shards is then ignored).
	Store *Store
	// IdleTimeout, when positive, is the longest a connection may sit
	// between bytes before the server reaps it. Without it, a silently dead
	// client parks its session goroutine forever and — for ingest sessions —
	// its StartSession registration blocks that meter ID for the life of the
	// process. The deadline is refreshed on every read, so any frame
	// progress keeps a session alive.
	IdleTimeout time.Duration
	// IngestBudget, when positive, is the per-shard admission-control bound
	// in estimated batch bytes: an ingest batch whose cost would push its
	// shard's in-flight total past the budget is refused with ErrOverloaded
	// (VerdictOverloaded on the wire) — typed, retryable backpressure
	// instead of unbounded memory growth under a flood. A batch arriving at
	// an idle shard is always admitted, so a single batch larger than the
	// whole budget cannot starve forever. 0 disables the gate.
	IngestBudget int64
	// WriteTimeout bounds every server→client response write (acks, query
	// results, verdicts). A peer that stops reading — half-dead connection,
	// black-holed path — would otherwise wedge the writing goroutine
	// forever once the socket buffer fills; with the deadline the write
	// fails, the session tears down, and WriteDeadlineReaps counts it.
	// 0 picks a default of 30s; negative disables.
	WriteTimeout time.Duration
	// Metrics, when non-nil, is the registry the service publishes its
	// telemetry into (session/batch counters, latency recorders, per-frame
	// transport counters) — what a /metrics endpoint scrapes. Nil creates a
	// private registry, so the recording paths are identical either way and
	// Stats() always works. A registry must not be shared between two
	// Services: the series names would collide.
	Metrics *metrics.Registry
}

// defaultWriteTimeout is the response-write deadline when the config leaves
// WriteTimeout zero.
const defaultWriteTimeout = 30 * time.Second

// Ingest is the write interface a session drives: the exactly-once batch
// contract of the sequenced protocol. A plain *Store implements it with the
// mark in memory; the storage engine wraps the store so every table and batch
// hits a write-ahead log before it commits and the mark survives recovery
// (see internal/storage), without the session loop knowing either way. Either
// way the store is the mark's one owner: the engine reads and advances the
// store's mark rather than keeping its own.
//
// Sequence numbers are dense and per-meter (CheckSeq): seq == LastSeq+1
// commits and advances the high-water mark, seq <= LastSeq is a duplicate
// from a retransmit after a lost ack — suppressed without writing, dup=true,
// still acked, and judged before any verdict but ErrUnknownMeter — and
// anything further ahead is ErrSeqGap. An empty batch is ErrEmptyBatch: the
// mark must be as durable as the batches it covers, and a logged batch has no
// empty form.
type Ingest interface {
	StartSession(meterID uint64) error
	EndSession(meterID uint64)
	LastSeq(meterID uint64) uint64
	PushTableSeq(meterID, seq uint64, t *symbolic.Table) (dup bool, err error)
	AppendSeq(meterID, seq uint64, pts []symbolic.SymbolPoint) (n int, dup bool, err error)
}

// QueryHandler executes one decoded query request, filling res for the
// session layer to encode. query.Engine.ServeQuery implements it; the
// indirection keeps this package free of an import cycle (internal/query
// already imports internal/server for the store types).
type QueryHandler interface {
	ServeQuery(req transport.QueryRequest, res *transport.QueryResult) error
}

// Stats is a point-in-time view of service counters.
type Stats struct {
	// Sessions is the number of ingest sessions started so far.
	Sessions int64
	// Active is the number of connections currently running an ingest
	// session (or not yet classified as ingest vs query).
	Active int64
	// Symbols is the total number of symbols ingested into the store.
	Symbols int64
	// BytesIn is the total bytes read off all connections (the wire cost
	// of tables, symbols, queries and framing together).
	BytesIn int64
	// QuerySessions is the number of query sessions started so far.
	QuerySessions int64
	// ActiveQueries is the number of query sessions currently running.
	ActiveQueries int64
	// AcceptRetries counts transient Accept failures survived by the
	// accept loop's backoff-and-retry path.
	AcceptRetries int64
	// DegradedSessions counts ingest sessions refused (or torn down)
	// because the durability layer was degraded; each one was answered
	// with a VerdictDegraded frame before the connection closed.
	DegradedSessions int64
	// OverloadRefusals counts batches refused by the per-shard ingest
	// admission gate; each was answered with VerdictOverloaded.
	OverloadRefusals int64
	// DrainRefusals counts sessions (ingest handshakes and query sessions)
	// refused with VerdictDraining during graceful shutdown.
	DrainRefusals int64
	// ReconnectReplays counts handshakes that found committed
	// history (a non-zero high-water mark) — reconnects whose reply told
	// the client where to resume.
	ReconnectReplays int64
	// DuplicateBatches counts frames suppressed as already
	// committed — retransmits after a lost ack, acked without re-writing.
	DuplicateBatches int64
	// WriteDeadlineReaps counts response writes (acks, query results,
	// verdicts) that hit the write deadline, tearing down a session whose
	// peer stopped reading.
	WriteDeadlineReaps int64
}

// Service accepts sensor connections and runs one session goroutine per
// meter, writing into a sharded Store. With a QueryHandler installed it
// also answers query sessions: a connection whose first byte is a 'Q'
// frame is dispatched to the query path instead of the ingest path.
type Service struct {
	store        *Store
	ingest       Ingest
	queryHandler QueryHandler
	idleTimeout  time.Duration
	ingestBudget int64
	writeTimeout time.Duration

	// inflight is the per-shard admission gauge: estimated bytes of ingest
	// batches currently being committed, bounded by ingestBudget.
	inflight []atomic.Int64
	draining atomic.Bool

	// met holds every service counter, registry-backed (see metrics.go);
	// Stats() snapshots from the same handles the hot paths bump.
	met *serviceMetrics

	mu sync.Mutex
	// errs holds the latest keptSessionErrors failed-session errors, oldest
	// first; errCount counts every failed session.
	errs     []error
	errCount int64
	closers  map[net.Conn]struct{}
	lns      []net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// New returns an idle service with a fresh store (or the recovered one the
// config carries).
func New(cfg Config) *Service {
	st := cfg.Store
	if st == nil {
		shards := cfg.Shards
		if shards <= 0 {
			shards = 16
		}
		st = NewStore(shards)
	}
	wt := cfg.WriteTimeout
	if wt == 0 {
		wt = defaultWriteTimeout
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	s := &Service{
		store:        st,
		ingest:       st,
		idleTimeout:  cfg.IdleTimeout,
		ingestBudget: cfg.IngestBudget,
		writeTimeout: wt,
		inflight:     make([]atomic.Int64, st.NumShards()),
		met:          newServiceMetrics(reg),
		closers:      make(map[net.Conn]struct{}),
	}
	s.registerShardGauges()
	return s
}

// SetIngest routes session writes through ing instead of the bare store —
// how a durability layer interposes its WAL. Must be called before Listen.
func (s *Service) SetIngest(ing Ingest) { s.ingest = ing }

// SetQueryHandler installs the executor for query sessions (normally
// query.New(svc.Store())). Must be called before Listen; without a handler,
// query connections are refused with an error response.
func (s *Service) SetQueryHandler(h QueryHandler) { s.queryHandler = h }

// Store exposes the aggregation store for reporting and tests.
func (s *Service) Store() *Store { return s.store }

// Stats returns current counters, snapshotted from the registry-backed
// handles the hot paths bump.
func (s *Service) Stats() Stats {
	return Stats{
		Sessions:           s.met.sessions.Value(),
		Active:             s.met.active.Value(),
		Symbols:            s.met.symbols.Value(),
		BytesIn:            s.met.bytesIn.Value(),
		QuerySessions:      s.met.querySessions.Value(),
		ActiveQueries:      s.met.activeQueries.Value(),
		AcceptRetries:      s.met.acceptRetries.Value(),
		DegradedSessions:   s.met.degradedSessions.Value(),
		OverloadRefusals:   s.met.overloadRefusals.Value(),
		DrainRefusals:      s.met.drainRefusals.Value(),
		ReconnectReplays:   s.met.reconnectReplays.Value(),
		DuplicateBatches:   s.met.duplicateBatches.Value(),
		WriteDeadlineReaps: s.met.writeDeadlineReaps.Value(),
	}
}

// BeginDrain switches the service into graceful-drain mode: established
// sessions keep their contracts, but new ingest handshakes and new query
// sessions are answered with VerdictDraining — typed, retryable
// backpressure — instead of a bare connection close. Graceful shutdown
// (cmd/serve on SIGTERM) calls this before awaiting in-flight sessions, so
// a rolling restart looks like a busy server, not a dead one.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// pointWireCost is the admission gate's per-point byte estimate: a decoded
// SymbolPoint is a timestamp plus a symbol, ~16 bytes resident while the
// batch is in flight.
const pointWireCost = 16

// acquireIngest charges one batch against its shard's in-flight budget,
// refusing with ErrOverloaded when the budget is exhausted. A batch
// arriving at an idle shard is always admitted so oversized batches cannot
// be starved forever. Callers must releaseIngest the same cost when the
// commit finishes, success or not.
func (s *Service) acquireIngest(meterID uint64, cost int64) error {
	if s.ingestBudget <= 0 || cost == 0 {
		return nil
	}
	shard := s.store.ShardFor(meterID)
	g := &s.inflight[shard]
	if n := g.Add(cost); n > s.ingestBudget && n != cost {
		g.Add(-cost)
		s.met.overloadRefusals.Inc()
		return fmt.Errorf("%w: shard %d has %d bytes in flight, batch of %d exceeds budget %d",
			ErrOverloaded, shard, n-cost, cost, s.ingestBudget)
	}
	return nil
}

func (s *Service) releaseIngest(meterID uint64, cost int64) {
	if s.ingestBudget <= 0 || cost == 0 {
		return
	}
	s.inflight[s.store.ShardFor(meterID)].Add(-cost)
}

// writeFrame writes one server→client frame under the response write
// deadline, counting a deadline hit as a reaped slow consumer.
func (s *Service) writeFrame(conn net.Conn, frame []byte) error {
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	_, err := conn.Write(frame)
	if err == nil && len(frame) >= 5 {
		s.met.framesOut.Observe(frame[0], len(frame)-5)
	}
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		s.met.writeDeadlineReaps.Inc()
	}
	return err
}

// ingestVerdictCode maps a session-refusing error onto its wire verdict, or
// 0 for errors with no typed verdict (protocol violations, disconnects).
func ingestVerdictCode(err error) byte {
	switch {
	case errors.Is(err, ErrDegraded):
		return transport.VerdictDegraded
	case errors.Is(err, ErrOverloaded):
		return transport.VerdictOverloaded
	case errors.Is(err, ErrDraining):
		return transport.VerdictDraining
	case errors.Is(err, ErrDuplicateMeter):
		return transport.VerdictBusy
	}
	return 0
}

// keptSessionErrors bounds how many failed-session errors a Service keeps,
// so a long-lived process under churn holds a fixed window of them.
const keptSessionErrors = 64

// SessionErrors returns the errors of the most recent failed sessions,
// oldest first — at most keptSessionErrors of them; SessionErrorCount
// counts all. An orderly stream contributes nothing; protocol violations
// and abrupt disconnects each contribute one typed error.
func (s *Service) SessionErrors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}

// SessionErrorCount returns how many sessions have failed so far.
func (s *Service) SessionErrorCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errCount
}

// recordErr records one failed session's error, dropping the oldest kept
// one when the window is full.
func (s *Service) recordErr(err error) {
	s.mu.Lock()
	if len(s.errs) == keptSessionErrors {
		s.errs = append(s.errs[:0], s.errs[1:]...)
	}
	s.errs = append(s.errs, err)
	s.errCount++
	s.mu.Unlock()
}

// Listen starts listening on addr (e.g. "127.0.0.1:0") and serves in a
// background goroutine until Close. It returns the bound address. The
// listener accepts both ingest and query sessions, telling them apart by
// the first frame byte.
func (s *Service) Listen(addr string) (net.Addr, error) {
	return s.listen(addr, false)
}

// ListenQuery starts a query-only listener on addr: ingest frames on its
// connections are refused. Deployments that want query traffic on a
// separate port (distinct firewall rules, separate load shedding) use this
// alongside Listen; it is never required — the main listener dispatches
// queries too.
func (s *Service) ListenQuery(addr string) (net.Addr, error) {
	return s.listen(addr, true)
}

func (s *Service) listen(addr string, queryOnly bool) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln, queryOnly)
	}()
	return ln.Addr(), nil
}

// Accept-retry backoff bounds: transient failures (ECONNABORTED on a
// half-open peer, EMFILE under fd pressure) back off from 1ms doubling to
// 1s, so the loop neither spins hot nor stays down longer than a second
// past the condition clearing.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

// serve accepts until the listener closes. Accept errors do not kill the
// loop: anything other than "listener closed" is retried with capped
// exponential backoff — an aborted connection or a transient fd exhaustion
// must not permanently stop a process that is otherwise healthy.
func (s *Service) serve(ln net.Listener, queryOnly bool) {
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.met.acceptRetries.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		// Claim an active slot before the goroutine exists so AwaitSessions
		// can never observe an accepted-but-uncounted connection.
		s.met.active.Add(1)
		s.track(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn, queryOnly)
		}()
	}
}

// handleConn classifies one accepted connection by its first frame byte and
// runs the matching session loop. The pre-claimed active slot either stays
// (ingest) or transfers to the query counters once classified, so ingest
// drain semantics (AwaitSessions) never count query readers.
func (s *Service) handleConn(conn net.Conn, queryOnly bool) {
	defer s.track(conn, false)
	defer conn.Close()
	var r io.Reader = conn
	if s.idleTimeout > 0 {
		r = &idleReader{conn: conn, timeout: s.idleTimeout}
	}
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	defer func() { s.met.bytesIn.Add(cr.n) }()

	first, perr := br.Peek(1)
	if perr == nil && first[0] == transport.FrameQuery {
		s.met.querySessions.Inc()
		s.met.activeQueries.Add(1)
		s.met.active.Add(-1)
		defer s.met.activeQueries.Add(-1)
		if err := s.runQuerySession(conn, br); err != nil {
			s.recordErr(err)
		}
		return
	}
	defer s.met.active.Add(-1)
	if queryOnly {
		// An ingest (or garbage) stream on the query port: refuse without
		// registering a meter session. Peek errors land here too — there is
		// nothing to answer a peer that never sent a byte.
		s.recordErr(fmt.Errorf("server: non-query stream on query-only listener: %w", transport.ErrUnknownFrame))
		return
	}
	// Ingest path. A Peek error falls through on purpose: runSession's
	// handshake read reproduces it as the usual ErrBadHandshake-wrapped
	// session error.
	s.met.sessions.Inc()
	symbols, err := s.runSession(conn, br)
	s.met.symbols.Add(symbols)
	if err != nil {
		if code := ingestVerdictCode(err); code != 0 {
			// The parting 'X' frame: tell the sensor *why* its stream ended —
			// degraded storage, overload, drain, or a busy meter — all typed
			// and retryable, before the connection closes. Best effort — a
			// peer that already hung up just misses the hint.
			if code == transport.VerdictDegraded {
				s.met.degradedSessions.Inc()
			}
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			frame := transport.AppendQueryErrorFrame(nil, 0, code, err.Error())
			if _, werr := conn.Write(frame); werr == nil {
				s.met.framesOut.Observe(frame[0], len(frame)-5)
			}
		}
		s.recordErr(err)
	}
}

// track registers or unregisters a live connection so Close can interrupt
// sessions that are still blocked reading.
func (s *Service) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed.Load() {
			// Close already ran; don't leave an unkillable session behind.
			conn.Close()
			return
		}
		s.closers[conn] = struct{}{}
	} else {
		delete(s.closers, conn)
	}
}

// AwaitSessions blocks until the service has accepted at least n ingest
// sessions and none is still running, or until timeout elapses (it reports
// which). Graceful shutdown calls it before closing the listeners: a
// freshly-closed connection can still be sitting un-accepted in the
// listener's backlog, and closing the listener at that moment would
// silently drop it along with its data. n must count only peers that
// actually connected — a caller whose sensor died before dialing must not
// wait for a session that will never arrive. Query sessions are counted
// separately and never hold this up.
func (s *Service) AwaitSessions(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		st := s.Stats()
		if st.Sessions >= n && st.Active == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close force-stops the service: every listener and live connection is
// closed, then all session goroutines are awaited.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return errors.New("server: already closed")
	}
	s.mu.Lock()
	lns := s.lns
	s.lns = nil
	for conn := range s.closers {
		conn.Close()
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}
