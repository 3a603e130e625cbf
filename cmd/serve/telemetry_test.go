package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"symmeter/internal/faultfs"
	"symmeter/internal/fleet"
	"symmeter/internal/metrics"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
)

// scrape GETs path off the telemetry mux and returns status + body.
func scrape(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryMuxLive drives real fleet traffic through an instrumented
// service and scrapes the assembled telemetry surface: /metrics must carry
// the ingest counters and P²-backed latency quantiles the traffic produced,
// /healthz answers 200 for an in-memory run, and the pprof index serves.
func TestTelemetryMuxLive(t *testing.T) {
	reg := metrics.New()
	svc := server.New(server.Config{Shards: 4, Metrics: reg})
	bound, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rep, err := fleet.Run(bound.String(), fleet.Config{
		Meters: 2, Days: 1, SecondsPerDay: 600, Window: 60, K: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
	}
	if !svc.AwaitSessions(int64(len(rep.Meters)), 10*time.Second) {
		t.Fatal("sessions did not finish")
	}

	srv := httptest.NewServer(telemetryMux(reg, nil))
	defer srv.Close()

	code, body := scrape(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"symmeter_ingest_sessions_total 2",
		"symmeter_ingest_symbols_total ",
		"symmeter_net_bytes_in_total ",
		"symmeter_transport_frames_total{dir=\"in\",type=\"D\"}",
		"symmeter_ingest_batch_seconds{quantile=\"0.5\"}",
		"symmeter_ingest_batch_seconds{quantile=\"0.99\"}",
		"symmeter_ingest_batch_hist_seconds_bucket{le=\"+Inf\"}",
		"symmeter_ingest_inflight_bytes{shard=\"0\"} 0",
		"symmeter_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The quantiles must be real measurements, not the zero estimator.
	st := svc.Stats()
	if st.Symbols == 0 {
		t.Fatal("fleet committed no symbols")
	}
	if strings.Contains(body, "symmeter_ingest_batch_seconds_count 0") {
		t.Errorf("latency recorder saw no batches:\n%s", body)
	}

	code, body = scrape(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok: in-memory") {
		t.Errorf("/healthz = %d %q, want 200 ok: in-memory", code, body)
	}
	code, body = scrape(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, body missing profile index", code)
	}
}

// TestHealthzDegraded flips a faultfs-backed engine to Degraded and watches
// /healthz go 200 → 503 (with the degradation reason) → 200 after the disk
// recovers and the probe heals the engine.
func TestHealthzDegraded(t *testing.T) {
	ffs := faultfs.New()
	reg := metrics.New()
	eng, err := storage.Open(storage.Options{
		Dir: t.TempDir(), Shards: 2, Sync: storage.SyncOff,
		FS: ffs, ProbeInterval: 2 * time.Millisecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srv := httptest.NewServer(telemetryMux(reg, eng))
	defer srv.Close()

	if code, body := scrape(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy engine: /healthz = %d %q", code, body)
	}

	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i)
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	// The disk dies: WAL writes fail and the probe cannot sync, so the
	// engine degrades and stays degraded.
	ffs.SetFaults(
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", Sticky: true},
		faultfs.Fault{Op: faultfs.OpSync, Path: ".probe", Sticky: true},
	)
	pts := []symbolic.SymbolPoint{{T: 0, S: table.Encode(1)}}
	if _, _, err := eng.AppendSeq(1, 2, pts); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append on dead disk: %v, want ErrDegraded", err)
	}
	code, body := scrape(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded engine: /healthz = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "wal append") {
		t.Errorf("/healthz body %q should carry the state and reason", body)
	}
	// The health-state gauge on /metrics must agree with /healthz.
	if _, mbody := scrape(t, srv, "/metrics"); !strings.Contains(mbody, "symmeter_storage_health_state 1") {
		t.Errorf("/metrics health gauge should read 1 while degraded")
	}

	// Disk recovers: the probe heals the engine and /healthz flips back.
	ffs.SetFaults()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := scrape(t, srv, "/healthz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, mbody := scrape(t, srv, "/metrics"); !strings.Contains(mbody, "symmeter_storage_heals_total 1") {
		t.Errorf("/metrics should count the heal")
	}
}

// TestServeMetricsFlag wires -metrics-addr through the whole binary: the run
// binds the telemetry listener and prints its address, a scrape of the live
// listener counts the fleet's sessions, and the run shuts down cleanly with
// the listener torn down.
func TestServeMetricsFlag(t *testing.T) {
	s := startServe(t, "-shards", "4", "-metrics-addr", "127.0.0.1:0")
	streamFleet(t, s.ingest, 2)
	if !strings.HasPrefix(s.metrics, "127.0.0.1:") {
		t.Fatalf("telemetry bound %q", s.metrics)
	}
	resp, err := http.Get("http://" + s.metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "symmeter_ingest_sessions_total 2\n") {
		t.Errorf("/metrics = %d, want 200 with symmeter_ingest_sessions_total 2", resp.StatusCode)
	}
	out, err := s.stop()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	wantOutput(t, out, "telemetry on http://127.0.0.1:", "session errors: 0")
	if _, err := http.Get("http://" + s.metrics + "/healthz"); err == nil {
		t.Error("telemetry listener still answers after shutdown")
	}
}
