package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"symmeter/internal/metrics"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// TestStatsRegistryBacked proves the Stats snapshot and the /metrics
// exposition read the same counters: after real ingest traffic from three
// meters, every Stats field must appear in the registry scrape with the
// identical value.
func TestStatsRegistryBacked(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Shards: 4, Metrics: reg})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	table := testTable(t)
	syms := make([]symbolic.Symbol, 10)
	for i := range syms {
		syms[i] = table.Encode(float64(100 * i))
	}
	const meters = 3
	for m := uint64(1); m <= meters; m++ {
		conn, fr, _ := sequencedDial(t, addr.String(), m)
		conn.Write(seqTableFrame(1, table))
		expectAck(t, fr, 1)
		conn.Write(seqBatchFrame(t, 2, 60, 60, syms))
		expectAck(t, fr, 2)
		writeRawFrame(t, conn, transport.FrameEnd, 0, nil)
		conn.Close()
	}
	if !svc.AwaitSessions(meters, 10*time.Second) {
		t.Fatal("sessions did not settle")
	}

	st := svc.Stats()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for name, v := range map[string]int64{
		"symmeter_ingest_sessions_total":      st.Sessions,
		"symmeter_ingest_sessions_active":     st.Active,
		"symmeter_ingest_symbols_total":       st.Symbols,
		"symmeter_net_bytes_in_total":         st.BytesIn,
		"symmeter_query_sessions_total":       st.QuerySessions,
		"symmeter_accept_retries_total":       st.AcceptRetries,
		"symmeter_drain_refusals_total":       st.DrainRefusals,
		"symmeter_write_deadline_reaps_total": st.WriteDeadlineReaps,
	} {
		want := fmt.Sprintf("%s %d\n", name, v)
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q (Stats and registry disagree)", strings.TrimSpace(want))
		}
	}
	if st.Sessions != 3 || st.Symbols == 0 || st.BytesIn == 0 {
		t.Fatalf("implausible stats after fleet run: %+v", st)
	}
	// Batch commits were timed: count equals committed batches (>0), and the
	// summary carries P² quantile samples for them.
	if !strings.Contains(out, `symmeter_ingest_batch_seconds{quantile="0.95"}`) {
		t.Error("scrape missing the ingest batch p95 series")
	}
	if strings.Contains(out, "symmeter_ingest_batch_seconds_count 0\n") {
		t.Error("ingest batch latency recorder saw no samples")
	}
	// Per-shard admission gauges exist for every shard and read 0 at rest.
	for shard := 0; shard < 4; shard++ {
		want := fmt.Sprintf("symmeter_ingest_inflight_bytes{shard=\"%d\"} 0\n", shard)
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", strings.TrimSpace(want))
		}
	}
}

// TestPrivateRegistryDefault: a Service without Config.Metrics still records
// (into its own registry), so hot paths never branch on telemetry.
func TestPrivateRegistryDefault(t *testing.T) {
	svc := New(Config{Shards: 2})
	if svc.met.reg == nil {
		t.Fatal("nil Config.Metrics must yield a private registry")
	}
	var buf bytes.Buffer
	if err := svc.met.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "symmeter_ingest_sessions_total 0") {
		t.Fatal("private registry missing the service families")
	}
}

// TestPartingVerdictFrameCounted: the session-ending 'X' frame is a frame
// out like any other. A busy-meter refusal (a second session for a live
// meter) raises the out 'X' frame and byte counters by exactly that frame.
func TestPartingVerdictFrameCounted(t *testing.T) {
	reg := metrics.New()
	svc := New(Config{Shards: 2, Metrics: reg})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	sequencedDial(t, addr.String(), 5)
	frames0, bytes0 := outVerdictFrames(t, reg)

	second := rawConn(t, addr.String())
	if err := transport.WriteHandshakeFlags(second, 5, transport.FlagSequenced); err != nil {
		t.Fatal(err)
	}
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := transport.NewFrameReader(second).Next()
	if err != nil || typ != transport.FrameQueryError {
		t.Fatalf("parting frame: typ=%#x err=%v", typ, err)
	}
	// The session error is recorded after the parting write is counted.
	waitSessionErr(t, svc, ErrDuplicateMeter)
	frames1, bytes1 := outVerdictFrames(t, reg)
	if frames1-frames0 != 1 || bytes1-bytes0 != int64(5+len(payload)) {
		t.Fatalf("out 'X' counters moved by %d frames, %d bytes; want 1 frame, %d bytes",
			frames1-frames0, bytes1-bytes0, 5+len(payload))
	}
}

// outVerdictFrames scrapes reg for the out-direction 'X' frame and byte
// counters.
func outVerdictFrames(t *testing.T, reg *metrics.Registry) (frames, bytes int64) {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, v, ok := strings.Cut(line, ` `)
		if !ok {
			continue
		}
		switch name {
		case `symmeter_transport_frames_total{dir="out",type="X"}`:
			fmt.Sscan(v, &frames)
		case `symmeter_transport_frame_bytes_total{dir="out",type="X"}`:
			fmt.Sscan(v, &bytes)
		}
	}
	return frames, bytes
}
