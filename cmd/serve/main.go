// Command serve is the aggregation server of the paper's §2 deployment: it
// listens for smart meters over TCP, stores each meter's lookup table once
// and its symbols packed in a sharded block store, and answers aggregates in
// the compressed domain — count, sum, mean, min, max and symbol histograms
// over a time range, per meter or fleet-wide — until it is signalled.
//
// With -data-dir the store is durable: every batch hits a per-shard WAL
// before it commits, sealed blocks spill into mmapped segment files, and a
// restart recovers the whole fleet's history before serving. SIGINT and
// SIGTERM drain in-flight sessions and flush storage instead of dying
// mid-frame; a flush failure exits non-zero.
//
//	serve                                          # in-memory, 16 shards
//	serve -addr 127.0.0.1:7701 -shards 32
//	serve -data-dir /var/lib/symmeter -fsync group # durable ingest + recovery
//	serve -query-addr 127.0.0.1:7700               # dedicated query-only listener
//	serve -metrics-addr 127.0.0.1:9100             # /metrics, /healthz, /debug/pprof
//	serve -idle-timeout 30s                        # reap silent connections after 30s
//	serve -cpuprofile cpu.out -memprofile mem.out  # profile until shutdown
//
// The listener takes both ingest sessions (pkg/client Session) and remote
// queries (pkg/client Client): a connection whose first frame is a query
// request ('Q') is dispatched to the compressed-domain engine instead of the
// ingest path, and its requests are answered one at a time, in request
// order. -query-addr adds a second, query-only listener (ingest handshakes
// are refused there). examples/fleet is a client that streams a simulated
// fleet to a running server and checks its answers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"symmeter/internal/metrics"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, nil)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// listening is where a started server accepts connections. query is the
// ingest address unless -query-addr is set; metrics is empty without
// -metrics-addr.
type listening struct {
	ingest, query, metrics string
}

// run serves until ctx is done, then drains and flushes. Once every
// listener is bound it passes their addresses to ready, if ready is not nil.
func run(ctx context.Context, args []string, out io.Writer, ready func(listening)) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		shards      = fs.Int("shards", 16, "store shard count")
		queryAddr   = fs.String("query-addr", "", "additional query-only listen address (queries are always served on -addr too)")
		idleTO      = fs.Duration("idle-timeout", 2*time.Minute, "reap connections silent past this; 0 disables")
		writeTO     = fs.Duration("write-timeout", 0, "fail server response writes blocked past this (0 = 30s default, negative disables)")
		budget      = fs.Int64("ingest-budget", 0, "per-shard in-flight ingest byte budget; over-budget batches get a typed retryable refusal (0 = unlimited)")
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
		// Close is idempotent: shutdown closes explicitly (and reports
		// errors); this backstop covers every early error return so no run
		// leaves the syncer goroutine, the segment mappings, or an
		// unflushed open segment behind.
		defer eng.Close()
		recovered = eng.Store()
		rs := eng.Recovery()
		fmt.Fprintf(out, "storage: %s (fsync=%s): recovered %d meters — %d points from %d segments, %d replayed from %d WAL records (%d torn tails truncated) in %s\n",
			*dataDir, eng.Sync(), rs.Meters, rs.SegmentPoints, rs.Segments, rs.ReplayedPoints, rs.WALRecords, rs.TornTails, rs.Duration.Round(time.Microsecond))
	}
	svc := server.New(server.Config{
		Shards:       *shards,
		Store:        recovered,
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
		IngestBudget: *budget,
		Metrics:      reg,
	})
	if eng != nil {
		svc.SetIngest(eng)
	}
	// Registering the query engine before Listen means the first accepted
	// stream can already be a query.
	svc.SetQueryHandler(query.New(svc.Store()))
	bound, err := svc.Listen(*addr)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprintf(out, "server listening on %s (%d shards)\n", bound, svc.Store().NumShards())
	at := listening{ingest: bound.String(), query: bound.String()}
	if *queryAddr != "" {
		qb, err := svc.ListenQuery(*queryAddr)
		if err != nil {
			return err
		}
		at.query = qb.String()
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
		at.metrics = mln.Addr().String()
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", mln.Addr())
	}
	if ready != nil {
		ready(at)
	}

	<-ctx.Done()
	fmt.Fprintln(out, "shutting down: draining sessions and flushing storage")
	return shutdown(svc, eng, out)
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
// what their peers already sent, then cut connections, flush the storage
// engine and print what the process served. A flush failure is the one
// thing that must exit non-zero — it means acknowledged data may need the
// WAL replayed on the next start.
func shutdown(svc *server.Service, eng *storage.Engine, out io.Writer) error {
	svc.BeginDrain()
	// Query sessions get the same moment as ingest ones: a client that has
	// just closed its connection must not be cut before its session reads
	// the EOF, or the cut would count as a failed session.
	deadline := time.Now().Add(5 * time.Second)
	settled := svc.AwaitSessions(svc.Stats().Sessions, 5*time.Second)
	for settled && svc.Stats().ActiveQueries > 0 {
		settled = time.Now().Before(deadline)
		time.Sleep(time.Millisecond)
	}
	if !settled {
		fmt.Fprintln(out, "warning: sessions still active after drain timeout; closing them")
	}
	svc.Close()
	// One snapshot after the drain settles, shared by every line below —
	// separate Stats() calls here could disagree with each other while the
	// reaped sessions' final counter updates land.
	st := svc.Stats()
	fmt.Fprintf(out, "served: %d ingest sessions committed %d symbols, %d bytes in; %d query sessions took %d tail-fold locks; store holds %d symbols\n",
		st.Sessions, st.Symbols, st.BytesIn, st.QuerySessions, svc.Store().QueryLockAcquisitions(), svc.Store().TotalSymbols())
	printRobustness(out, st)
	if eng != nil {
		printHealth(out, eng, st.DegradedSessions)
		if err := eng.Close(); err != nil {
			return fmt.Errorf("storage flush on shutdown: %w", err)
		}
		line := "storage flushed cleanly"
		if walBytes, segBytes, err := eng.DiskUsage(); err == nil {
			line += fmt.Sprintf("; on disk: %d WAL bytes, %d segment bytes", walBytes, segBytes)
		}
		fmt.Fprintln(out, line)
	}
	if n := svc.SessionErrorCount(); n > 0 {
		fmt.Fprintf(out, "session errors: %d (oldest kept: %v)\n", n, svc.SessionErrors()[0])
	} else {
		fmt.Fprintln(out, "session errors: 0")
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}
