package server

import (
	"strconv"

	"symmeter/internal/metrics"
	"symmeter/internal/transport"
)

// serviceMetrics is the service's registry-backed counter set. Every counter
// the old Stats snapshot exposed lives here as a first-class registry series
// (one atomic add either way — Stats() reads the same handles), plus the
// latency recorders and per-frame-type transport counters that only exist
// through the registry. A Service always has one: when the config carries no
// registry a private one is created, so the recording paths never branch on
// "is telemetry on".
type serviceMetrics struct {
	reg *metrics.Registry

	sessions           *metrics.Counter
	active             *metrics.Gauge
	symbols            *metrics.Counter
	bytesIn            *metrics.Counter
	querySessions      *metrics.Counter
	activeQueries      *metrics.Gauge
	acceptRetries      *metrics.Counter
	degradedSessions   *metrics.Counter
	overloadRefusals   *metrics.Counter
	drainRefusals      *metrics.Counter
	reconnectReplays   *metrics.Counter
	duplicateBatches   *metrics.Counter
	writeDeadlineReaps *metrics.Counter

	// ingestBatchLat times each batch commit (WAL + store) inside the
	// session loop; queryLat times ServeQuery execution inside the query
	// session loop. Both recorders are lock-free and zero-alloc (see
	// internal/metrics), so the hot paths keep their AllocsPerRun pins.
	ingestBatchLat *metrics.Latency
	queryLat       *metrics.Latency

	framesIn  *transport.FrameMetrics
	framesOut *transport.FrameMetrics
}

// newServiceMetrics registers the service's counter families on reg.
func newServiceMetrics(reg *metrics.Registry) *serviceMetrics {
	return &serviceMetrics{
		reg: reg,
		sessions: reg.Counter("symmeter_ingest_sessions_total",
			"Ingest sessions started."),
		active: reg.Gauge("symmeter_ingest_sessions_active",
			"Connections currently in an ingest session (or not yet classified)."),
		symbols: reg.Counter("symmeter_ingest_symbols_total",
			"Symbols committed to the store."),
		bytesIn: reg.Counter("symmeter_net_bytes_in_total",
			"Bytes read off all accepted connections (tables, symbols, queries, framing)."),
		querySessions: reg.Counter("symmeter_query_sessions_total",
			"Query sessions started."),
		activeQueries: reg.Gauge("symmeter_query_sessions_active",
			"Query sessions currently running."),
		acceptRetries: reg.Counter("symmeter_accept_retries_total",
			"Transient Accept failures survived by the accept loop's backoff."),
		degradedSessions: reg.Counter("symmeter_ingest_degraded_sessions_total",
			"Ingest sessions refused or torn down with VerdictDegraded."),
		overloadRefusals: reg.Counter("symmeter_ingest_overload_refusals_total",
			"Batches refused by the per-shard admission gate with VerdictOverloaded."),
		drainRefusals: reg.Counter("symmeter_drain_refusals_total",
			"Sessions refused with VerdictDraining during graceful shutdown."),
		reconnectReplays: reg.Counter("symmeter_ingest_reconnect_replays_total",
			"Handshakes that found committed history (reconnects)."),
		duplicateBatches: reg.Counter("symmeter_ingest_duplicate_batches_total",
			"Frames suppressed as already committed."),
		writeDeadlineReaps: reg.Counter("symmeter_write_deadline_reaps_total",
			"Response writes that hit the write deadline, tearing down the session."),
		ingestBatchLat: reg.Latency("symmeter_ingest_batch_seconds",
			"Ingest batch commit latency (WAL + store), per symbol batch."),
		queryLat: reg.Latency("symmeter_query_seconds",
			"Query execution latency inside the query session loop."),
		framesIn:  transport.NewFrameMetrics(reg, "in"),
		framesOut: transport.NewFrameMetrics(reg, "out"),
	}
}

// registerShardGauges exposes the per-shard admission-budget occupancy (and
// the configured budget) once the in-flight gauges exist. Called from New.
func (s *Service) registerShardGauges() {
	reg := s.met.reg
	for i := range s.inflight {
		g := &s.inflight[i]
		reg.GaugeFunc("symmeter_ingest_inflight_bytes",
			"Estimated bytes of ingest batches currently being committed, per shard.",
			func() float64 { return float64(g.Load()) },
			metrics.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
	reg.GaugeFunc("symmeter_ingest_budget_bytes",
		"Per-shard ingest admission budget (0 = unlimited).",
		func() float64 { return float64(s.ingestBudget) })
	reg.GaugeFunc("symmeter_draining",
		"1 while the service is in graceful drain, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
}
