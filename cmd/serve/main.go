// Command serve demonstrates the §2 deployment story at fleet scale over
// real TCP on localhost: a concurrent aggregation server listens with a
// sharded packed block store, M simulated smart meters (internal/fleet)
// connect in parallel, each opens a pkg/client Session for its meter ID,
// learns a lookup table from two days of history, streams days of symbols
// (15-minute vertical segmentation by default) as sequenced batches the
// server acknowledges one by one, and the server answers fleet-wide
// aggregates directly in the
// compressed domain — count, mean, min, max and (optionally) the symbol
// histogram over a queried time range — alongside the per-meter MAE
// reconstruction check.
//
// With -data-dir the store is durable: every batch hits a per-shard WAL
// before it commits, sealed blocks spill into mmapped segment files, and a
// restart recovers the whole fleet's history before serving — so the query
// line at the end aggregates recovered + fresh data together. SIGINT and
// SIGTERM drain in-flight sessions and flush storage instead of dying
// mid-frame; a flush failure exits non-zero.
//
//	serve                        # 4 meters, 16 shards, 1 day each
//	serve -meters 64 -shards 32 -days 3
//	serve -meters 2 -seconds 3600    # only the first hour of each day
//	serve -hist -qfrom 172800 -qto 216000  # histogram of the live day's first 12 hours
//	                                       # (stored data starts after the 2 training days)
//	serve -data-dir /var/lib/symmeter -fsync group   # durable ingest + recovery
//	serve -cpuprofile cpu.out        # profile ingest + query
//	serve -query-addr 127.0.0.1:7700 # dedicated query-only listener
//	serve -idle-timeout 30s          # reap silent connections after 30s
//
// The listener also answers remote queries: a connection whose first frame
// is a query request ('Q') is dispatched to the compressed-domain engine
// instead of the ingest path, with at most -query-conc queries executing
// per connection. -query-addr adds a second, query-only listener (ingest
// handshakes are refused there). After the fleet run the binary asks its
// own fleet aggregate once more through pkg/client over TCP and checks it
// against the in-process answer — the wire demo of the §2 story.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"symmeter/internal/fleet"
	"symmeter/internal/metrics"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/pkg/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		meters      = fs.Int("meters", 4, "number of concurrent simulated meters")
		shards      = fs.Int("shards", 16, "store shard count")
		days        = fs.Int("days", 1, "days of live data each meter streams after its 2 training days")
		seconds     = fs.Int64("seconds", 0, "cap each day to its first N seconds (0 = whole day)")
		seed        = fs.Int64("seed", 1, "dataset seed (meter i uses seed+i)")
		k           = fs.Int("k", 16, "alphabet size")
		window      = fs.Int64("window", 900, "vertical window seconds")
		relearn     = fs.Bool("relearn", false, "rebuild and resend each meter's table daily (adaptive path)")
		qfrom       = fs.Int64("qfrom", 0, "query range start (seconds since the stream epoch)")
		qto         = fs.Int64("qto", 0, "query range end, exclusive (0 = unbounded)")
		qworkers    = fs.Int("qworkers", 0, "fleet-query worker pool size (0 = GOMAXPROCS)")
		hist        = fs.Bool("hist", false, "also print the fleet-wide symbol histogram for the query range")
		queryAddr   = fs.String("query-addr", "", "additional query-only listen address (queries are always served on -addr too)")
		idleTO      = fs.Duration("idle-timeout", 2*time.Minute, "reap connections silent past this; 0 disables")
		writeTO     = fs.Duration("write-timeout", 0, "fail server response writes blocked past this (0 = 30s default, negative disables)")
		budget      = fs.Int64("ingest-budget", 0, "per-shard in-flight ingest byte budget; over-budget batches get a typed retryable refusal (0 = unlimited)")
		queryConc   = fs.Int("query-conc", 0, "max concurrently executing queries per connection (0 = default)")
		metricsAddr = fs.String("metrics-addr", "", "telemetry HTTP listen address (/metrics, /healthz, /debug/pprof); empty disables")
		dataDir     = fs.String("data-dir", "", "durable storage directory (WAL + segments); empty = in-memory only")
		fsyncMode   = fs.String("fsync", "group", "WAL durability with -data-dir: off, group or always")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	stopCPU, err := startCPUProfile(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()
	// A heap profile that cannot be written fails the command.
	defer func() {
		if werr := writeHeapProfile(*memprofile); werr != nil && err == nil {
			err = werr
		}
	}()

	fleetCfg := fleet.Config{
		Meters:        *meters,
		Days:          *days,
		SecondsPerDay: *seconds,
		Window:        *window,
		K:             *k,
		Seed:          *seed,
		RelearnPerDay: *relearn,
	}
	// One registry backs everything this process records — the engine's WAL
	// recorders and health gauges, the service's session counters and latency
	// quantiles — and is what -metrics-addr exposes.
	reg := metrics.New()
	// With -data-dir, recover the store from disk and interpose the WAL +
	// segment engine between the sessions and the store.
	var eng *storage.Engine
	var recovered *server.Store
	if *dataDir != "" {
		mode, err := storage.ParseSyncMode(*fsyncMode)
		if err != nil {
			return err
		}
		eng, err = storage.Open(storage.Options{Dir: *dataDir, Shards: *shards, Sync: mode, Metrics: reg})
		if err != nil {
			return err
		}
		// Close is idempotent: the happy path and the signal path close
		// explicitly (and report errors); this backstop covers every early
		// error return so no run leaves the syncer goroutine, the segment
		// mappings, or an unflushed open segment behind.
		defer eng.Close()
		recovered = eng.Store()
		rs := eng.Recovery()
		fmt.Fprintf(out, "storage: %s (fsync=%s): recovered %d meters — %d points from %d segments, %d replayed from %d WAL records (%d torn tails truncated) in %s\n",
			*dataDir, eng.Sync(), rs.Meters, rs.SegmentPoints, rs.Segments, rs.ReplayedPoints, rs.WALRecords, rs.TornTails, rs.Duration.Round(time.Microsecond))
	}
	// Each meter will stream one symbol per window; reserving that capacity
	// at handshake keeps the per-batch store commits allocation-free.
	svc := server.New(server.Config{
		Shards:           *shards,
		ReservePoints:    fleetCfg.ExpectedPointsPerMeter(),
		Store:            recovered,
		IdleTimeout:      *idleTO,
		WriteTimeout:     *writeTO,
		IngestBudget:     *budget,
		QueryConcurrency: *queryConc,
		Metrics:          reg,
	})
	if eng != nil {
		svc.SetIngest(eng)
	}
	// The compressed-domain engine answers both the summary printed below and
	// any remote query connection; registering it before Listen means the
	// first accepted stream can already be a query.
	qe := query.New(svc.Store())
	if *qworkers > 0 {
		qe.SetWorkers(*qworkers)
	}
	svc.SetQueryHandler(qe)
	bound, err := svc.Listen(*addr)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprintf(out, "server listening on %s (%d shards)\n", bound, svc.Store().NumShards())
	qbound := bound
	if *queryAddr != "" {
		qb, err := svc.ListenQuery(*queryAddr)
		if err != nil {
			return err
		}
		qbound = qb
		fmt.Fprintf(out, "query listener on %s\n", qb)
	}
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("telemetry listen: %w", err)
		}
		msrv := &http.Server{Handler: telemetryMux(reg, eng)}
		go msrv.Serve(mln)
		defer msrv.Close()
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", mln.Addr())
	}

	// SIGINT/SIGTERM drain cleanly — finish reading what connected sensors
	// already sent, flush storage — instead of dying mid-frame.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	start := time.Now()
	fleetDone := make(chan *fleet.Report, 1)
	fleetErr := make(chan error, 1)
	go func() {
		rep, err := fleet.Run(bound.String(), fleetCfg)
		if err != nil {
			fleetErr <- err
			return
		}
		fleetDone <- rep
	}()
	var rep *fleet.Report
	select {
	case rep = <-fleetDone:
	case err := <-fleetErr:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "received %v: draining sessions and flushing storage\n", sig)
		return shutdown(svc, eng, out)
	}
	// Every meter whose dial succeeded produced a server-side session (even
	// one that failed mid-stream), and a just-closed connection may still be
	// un-accepted in the listener backlog — wait for all of them before
	// closing the listener so no stream is dropped.
	var connected int64
	for _, m := range rep.Meters {
		if m.Connected {
			connected++
		}
	}
	if !svc.AwaitSessions(connected, 30*time.Second) {
		fmt.Fprintf(out, "warning: timed out waiting for %d sessions to finish; results may be incomplete\n", connected)
	}
	elapsed := time.Since(start)
	t0, t1 := *qfrom, *qto
	if t1 <= 0 {
		// Unbounded: only a point at exactly MaxInt64 is unreachable by a
		// half-open range, so this matches the stored total.
		t1 = math.MaxInt64
	}
	// Every ingest session has finished, so the store is complete: ask the
	// fleet aggregate through the wire now, while the listeners are still up
	// — pkg/client speaks the 'Q'/'R' frame protocol to the listener the
	// meters used (or the dedicated -query-addr one), and Drain below would
	// otherwise wait on the open query session.
	wc, err := client.Dial(qbound.String())
	if err != nil {
		return fmt.Errorf("wire query dial: %w", err)
	}
	wstart := time.Now()
	wagg, werr := wc.FleetAggregate(t0, t1)
	welapsed := time.Since(wstart)
	wc.Close()
	if werr != nil {
		return fmt.Errorf("wire query: %w", werr)
	}
	svc.Drain()
	rep.Evaluate(svc.Store())

	const maxLines = 16
	for i, m := range rep.Meters {
		if i == maxLines && len(rep.Meters) > maxLines+1 {
			fmt.Fprintf(out, "  ... %d more meters\n", len(rep.Meters)-maxLines)
			break
		}
		if m.Err != nil {
			fmt.Fprintf(out, "  meter %4d: FAILED: %v\n", m.MeterID, m.Err)
			continue
		}
		fmt.Fprintf(out, "  meter %4d: %d raw -> %d symbols, MAE %.1f W\n",
			m.MeterID, m.Sent, m.Symbols, m.MAE)
	}

	// The fleet summary is answered by the compressed-domain query engine —
	// block summaries plus LUT edge kernels over the RCU-published sealed
	// indexes, a bounded worker pool over the shards — not by reconstructing
	// streams, and (for sealed data) without taking any shard lock.
	qstart := time.Now()
	agg := qe.FleetAggregate(t0, t1)
	qelapsed := time.Since(qstart)
	// The ingest total is always the full stored count — the -qfrom/-qto
	// window restricts only the query line below.
	stored := svc.Store().TotalSymbols()

	rate := float64(stored) / elapsed.Seconds()
	fmt.Fprintf(out, "fleet: %d meters sent %d raw measurements -> %d symbols in %v (%.0f symbols/sec)\n",
		len(rep.Meters), rep.Sent, stored, elapsed.Round(time.Millisecond), rate)
	if agg.Count > 0 {
		fmt.Fprintf(out, "query: fleet mean %.1f W, min %.1f W, max %.1f W over [%d,%d) — %d points in %v, compressed-domain, %d workers, %d tail-fold locks\n",
			agg.Mean(), agg.Min, agg.Max, t0, t1, agg.Count, qelapsed.Round(time.Microsecond),
			qe.Workers(), svc.Store().QueryLockAcquisitions())
	} else {
		fmt.Fprintf(out, "query: no points in [%d,%d) (%v, compressed-domain)\n", t0, t1, qelapsed.Round(time.Microsecond))
	}
	if *hist {
		h, err := qe.FleetHistogram(t0, t1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "query: histogram (level %d): %v\n", h.Level, h.Counts)
	}

	// The wire answer from before the drain must agree with the in-process
	// engine on the identical frozen store.
	if wagg.Count != agg.Count {
		return fmt.Errorf("wire query saw %d points, in-process saw %d", wagg.Count, agg.Count)
	}
	fmt.Fprintf(out, "netquery: fleet mean %.1f W over %d points via pkg/client in %v — matches in-process\n",
		wagg.Mean(), wagg.Count, welapsed.Round(time.Microsecond))

	st := svc.Stats()
	fmt.Fprintf(out, "wire: %d bytes in (tables + symbols + framing); raw would be %d bytes\n",
		st.BytesIn, symbolic.RawSize(rep.Sent))
	printRobustness(out, st)
	if eng != nil {
		printHealth(out, eng, st.DegradedSessions)
		// All queries above are done; flushing finishes the open segments
		// and makes the next start recover from footers instead of replay.
		if err := eng.Close(); err != nil {
			return fmt.Errorf("storage flush: %w", err)
		}
		walBytes, segBytes, derr := eng.DiskUsage()
		if derr == nil {
			fmt.Fprintf(out, "storage: flushed; on disk: %d WAL bytes, %d segment bytes\n", walBytes, segBytes)
		}
	}
	if n := svc.SessionErrorCount(); n > 0 {
		fmt.Fprintf(out, "session errors: %d (oldest kept: %v)\n", n, svc.SessionErrors()[0])
		return fmt.Errorf("%d of %d sessions failed", n, len(rep.Meters))
	}
	fmt.Fprintln(out, "session errors: 0")
	return nil
}

// telemetryMux assembles the -metrics-addr HTTP surface: /metrics in
// Prometheus text format off the process-wide registry, /healthz mirroring
// the storage health machine (200 while Healthy, 503 while Degraded or
// Recovering — a load balancer should stop routing ingest at a degraded
// node, which serves queries only), and the live pprof handlers. A purely
// in-memory run (no -data-dir) has no durability to lose, so its /healthz is
// always 200.
func telemetryMux(reg *metrics.Registry, eng *storage.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if eng == nil {
			fmt.Fprintln(w, "ok: in-memory")
			return
		}
		h := eng.Health()
		if h.State == storage.StateHealthy {
			fmt.Fprintf(w, "ok: %s\n", h.State)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		if h.Reason != "" {
			fmt.Fprintf(w, "unavailable: %s (%s)\n", h.State, h.Reason)
		} else {
			fmt.Fprintf(w, "unavailable: %s\n", h.State)
		}
	})
	attachPprof(mux)
	return mux
}

// printHealth reports the engine's health state and fault counters — the
// operator's view of degraded-mode behavior: "healthy" with all-zero
// counters on a good disk, otherwise the state, its cause, and how many
// sessions were refused with VerdictDegraded.
func printHealth(out io.Writer, eng *storage.Engine, degradedSessions int64) {
	h := eng.Health()
	line := fmt.Sprintf("storage health: %s", h.State)
	if h.Reason != "" {
		line += fmt.Sprintf(" (%s)", h.Reason)
	}
	if h.SpillDisabled {
		line += " [spill disabled: sealed blocks heap-resident]"
	}
	fmt.Fprintf(out, "%s — wal-gen %d, faults: %d wal writes, %d fsyncs, %d spill fallbacks, %d manifest retries, %d manifest failures; %d probes, %d heals, %d degraded sessions\n",
		line, h.WALGen, h.WALWriteFailures, h.FsyncFailures, h.SpillFallbacks,
		h.ManifestRetries, h.ManifestFailures, h.Probes, h.Heals, degradedSessions)
}

// printRobustness reports the ingest-robustness counters — the operator's
// view of how hard the admission and exactly-once machinery worked: typed
// overload/drain refusals, reconnect replays, duplicates the sequence
// numbers suppressed, and slow consumers the write deadline reaped.
func printRobustness(out io.Writer, st server.Stats) {
	fmt.Fprintf(out, "robustness: %d reconnect replays, %d duplicate batches suppressed, %d overload refusals, %d drain refusals, %d write-deadline reaps\n",
		st.ReconnectReplays, st.DuplicateBatches,
		st.OverloadRefusals, st.DrainRefusals, st.WriteDeadlineReaps)
}

// shutdown is the signal path: stop admitting sessions (new ingest and query
// connections get the typed retryable VerdictDraining, so clients back off
// and redial elsewhere), give in-flight sessions a moment to finish reading
// what their peers already sent, then cut connections and flush the storage
// engine. A flush failure is the one thing that must exit non-zero — it
// means acknowledged data may need the WAL replayed on the next start.
func shutdown(svc *server.Service, eng *storage.Engine, out io.Writer) error {
	svc.BeginDrain()
	if !svc.AwaitSessions(svc.Stats().Sessions, 5*time.Second) {
		fmt.Fprintln(out, "warning: sessions still active after drain timeout; closing them")
	}
	svc.Close()
	// One snapshot after the drain settles, shared by every line below —
	// separate Stats() calls here could disagree with each other while the
	// reaped sessions' final counter updates land.
	st := svc.Stats()
	printRobustness(out, st)
	if eng != nil {
		printHealth(out, eng, st.DegradedSessions)
		if err := eng.Close(); err != nil {
			return fmt.Errorf("storage flush on shutdown: %w", err)
		}
		fmt.Fprintln(out, "storage flushed cleanly")
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}
