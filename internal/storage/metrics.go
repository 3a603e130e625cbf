package storage

import (
	"time"

	"symmeter/internal/metrics"
)

// engineMetrics is the engine's registry-backed telemetry. Like the server's
// serviceMetrics, an engine always owns one (private registry when Options
// carries none), so the WAL hot path records unconditionally — no telemetry
// branch, and the latency recorders stay lock-free and zero-alloc.
type engineMetrics struct {
	reg *metrics.Registry

	// walAppendLat times one framed record write into the shard log;
	// fsyncLat times each covering fsync (per-batch under SyncAlways, per
	// dirty shard per tick under SyncGroup).
	walAppendLat *metrics.Latency
	fsyncLat     *metrics.Latency
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	return &engineMetrics{
		reg: reg,
		walAppendLat: reg.Latency("symmeter_wal_append_seconds",
			"WAL record write latency (frame + CRC + write(2)), per batch or table."),
		fsyncLat: reg.Latency("symmeter_wal_fsync_seconds",
			"WAL fsync latency (per batch under SyncAlways, per group tick otherwise)."),
	}
}

// registerHealthMetrics exposes the health state machine and its fault
// counters as gauge/counter functions reading the same atomics Health()
// snapshots. Called once from Open, after the engine is assembled.
func (e *Engine) registerHealthMetrics() {
	reg := e.met.reg
	h := &e.health
	reg.GaugeFunc("symmeter_storage_health_state",
		"Engine health state: 0 healthy, 1 degraded (queries only), 2 recovering.",
		func() float64 { return float64(h.state.Load()) })
	reg.GaugeFunc("symmeter_storage_spill_disabled",
		"1 while sealed blocks stay heap-resident because segment writes fail, else 0.",
		func() float64 {
			if h.spillDisabled.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("symmeter_storage_wal_gen",
		"Current WAL generation (0 = original logs; bumps on each heal rotation).",
		func() float64 { return float64(e.walGen.Load()) })
	reg.CounterFunc("symmeter_storage_wal_write_failures_total",
		"WAL write failures (each degrades the engine).",
		func() float64 { return float64(h.walWriteFailures.Load()) })
	reg.CounterFunc("symmeter_storage_fsync_failures_total",
		"WAL fsync failures (each degrades the engine; the covering tail is poisoned).",
		func() float64 { return float64(h.fsyncFailures.Load()) })
	reg.CounterFunc("symmeter_storage_spill_fallbacks_total",
		"Sealed blocks kept heap-resident instead of spilled to a segment.",
		func() float64 { return float64(h.spillFallbacks.Load()) })
	reg.CounterFunc("symmeter_storage_manifest_retries_total",
		"Manifest writes that needed a retry.",
		func() float64 { return float64(h.manifestRetries.Load()) })
	reg.CounterFunc("symmeter_storage_manifest_failures_total",
		"Manifest writes that exhausted their retries (degrades the engine).",
		func() float64 { return float64(h.manifestFailures.Load()) })
	reg.CounterFunc("symmeter_storage_probes_total",
		"Background directory probes attempted while degraded or spill-disabled.",
		func() float64 { return float64(h.probes.Load()) })
	reg.CounterFunc("symmeter_storage_heals_total",
		"Degraded-to-healthy round trips completed (WAL generation rotations).",
		func() float64 { return float64(h.heals.Load()) })
}

// registerRecoveryMetrics exposes what the last Open rebuilt. The values are
// fixed once recovery returns, so the gauges read the stats Recovery()
// reports and the two can never disagree. Called once from Open, after a
// successful recover.
func (e *Engine) registerRecoveryMetrics() {
	reg := e.met.reg
	rs := &e.recovered
	reg.GaugeFunc("symmeter_storage_recovery_seconds",
		"Wall-clock time the last recovery took inside Open.",
		func() float64 { return rs.Duration.Seconds() })
	for _, ph := range []struct {
		name string
		d    *time.Duration
	}{{"segment_restore", &rs.SegmentRestore}, {"wal_parse", &rs.WALParse}, {"replay", &rs.Replay}} {
		reg.GaugeFunc("symmeter_storage_recovery_phase_seconds",
			"Time the last recovery spent per phase, summed over the parallel shard pipelines (the sum can exceed symmeter_storage_recovery_seconds).",
			func() float64 { return ph.d.Seconds() },
			metrics.Label{Key: "phase", Value: ph.name})
	}
	reg.GaugeFunc("symmeter_storage_recovery_replayed_points",
		"Points the last recovery re-appended from the WAL (tails plus post-manifest seals).",
		func() float64 { return float64(rs.ReplayedPoints) })
	reg.GaugeFunc("symmeter_storage_recovery_skipped_points",
		"Points of the WAL the last recovery skipped as already covered by segments.",
		func() float64 { return float64(rs.SkippedPoints) })
}
