package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symmeter/internal/fleet"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/pkg/client"
)

// served is one serve run on its own goroutine, listening until stopped.
type served struct {
	listening
	cancel  context.CancelFunc
	done    chan error
	out     bytes.Buffer
	stopped bool
}

// startServe runs serve with args and returns once every listener is bound;
// the run is stopped when the test ends if the test did not stop it.
func startServe(t *testing.T, args ...string) *served {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{cancel: cancel, done: make(chan error, 1)}
	ready := make(chan listening, 1)
	go func() { s.done <- run(ctx, args, &s.out, func(l listening) { ready <- l }) }()
	select {
	case s.listening = <-ready:
	case err := <-s.done:
		cancel()
		t.Fatalf("serve exited before listening: %v\n%s", err, s.out.String())
	}
	t.Cleanup(func() {
		if !s.stopped {
			s.stop()
		}
	})
	return s
}

// stop cancels the run's context, as SIGINT or SIGTERM does, and returns
// what the run printed and returned.
func (s *served) stop() (string, error) {
	s.stopped = true
	s.cancel()
	err := <-s.done
	return s.out.String(), err
}

// streamFleet streams a gap-free fleet of n meters, 600 s at 60 s windows
// each, to addr and returns the symbols the server acked.
func streamFleet(t *testing.T, addr string, n int) uint64 {
	t.Helper()
	rep, err := fleet.Run(addr, fleet.Config{
		Meters: n, Days: 1, SecondsPerDay: 600, Window: 60, Seed: 1, DisableGaps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	for _, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
		acked += uint64(m.Acked)
	}
	if acked == 0 {
		t.Fatal("the fleet acked no symbols")
	}
	return acked
}

// fleetAgg asks addr for the fleet aggregate over [t0, t1) through
// pkg/client.
func fleetAgg(t *testing.T, addr string, t0, t1 int64) client.Agg {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.FleetAggregate(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// wantOutput fails the test for each want that out does not contain.
func wantOutput(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeIdleUntilSignalled: a server with no data directory and no
// traffic stays up, answers a fleet query with nothing, and shuts down
// cleanly once its context is cancelled.
func TestServeIdleUntilSignalled(t *testing.T) {
	s := startServe(t, "-shards", "4")
	select {
	case err := <-s.done:
		t.Fatalf("idle server exited on its own: %v\n%s", err, s.out.String())
	case <-time.After(300 * time.Millisecond):
	}
	if a := fleetAgg(t, s.query, math.MinInt64, math.MaxInt64); a.Count != 0 {
		t.Fatalf("idle server fleet count = %d, want 0", a.Count)
	}
	out, err := s.stop()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	wantOutput(t, out, "server listening on 127.0.0.1:", "served: 0 ingest sessions", "session errors: 0", "shutdown complete")
}

// TestServeEndToEnd runs the binary in-process against two concurrent
// meters over a real listener: the wire fleet count is exactly what the
// meters had acked, and the shutdown summary reports the ingest.
func TestServeEndToEnd(t *testing.T) {
	s := startServe(t, "-shards", "4")
	acked := streamFleet(t, s.ingest, 2)
	a := fleetAgg(t, s.query, math.MinInt64, math.MaxInt64)
	if a.Count != acked || math.IsNaN(a.Mean()) || a.Min > a.Max {
		t.Fatalf("wire fleet aggregate %+v, meters acked %d", a, acked)
	}
	out, err := s.stop()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	wantOutput(t, out,
		"server listening on 127.0.0.1:",
		"(4 shards)",
		"served: 2 ingest sessions committed ",
		"bytes in",
		"session errors: 0",
		"shutdown complete",
	)
}

// TestServeHistogramAndProfiles covers a ranged fleet histogram over the
// wire and the pprof plumbing in one end-to-end run.
func TestServeHistogramAndProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	s := startServe(t, "-shards", "2", "-cpuprofile", cpu, "-memprofile", mem)
	streamFleet(t, s.ingest, 1)
	c, err := client.Dial(s.query)
	if err != nil {
		t.Fatal(err)
	}
	// The two training days precede the streamed day, so live timestamps
	// start at 2·86400 = 172800.
	h, err := c.FleetHistogram(172800, 173100)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Level != 4 || h.Total() == 0 {
		t.Errorf("histogram over [172800,173100) = level %d, %d points; want level 4 covering points", h.Level, h.Total())
	}
	if out, err := s.stop(); err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

// TestServeMemProfileFailure: a heap profile that cannot be written fails
// the command instead of being dropped silently.
func TestServeMemProfileFailure(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "missing", "mem.out")
	s := startServe(t, "-shards", "2", "-memprofile", mem)
	if _, err := s.stop(); err == nil {
		t.Fatalf("run succeeded with unwritable -memprofile %s", mem)
	}
}

// TestServeQueryListener runs the server with a dedicated query-only
// listener and a finite idle timeout: the fleet streams to -addr and the
// wire query through the second listener sees every acked symbol.
func TestServeQueryListener(t *testing.T) {
	s := startServe(t, "-shards", "4", "-query-addr", "127.0.0.1:0", "-idle-timeout", "5s")
	if s.query == s.ingest {
		t.Fatalf("query listener shares the ingest address %s", s.ingest)
	}
	acked := streamFleet(t, s.ingest, 2)
	if a := fleetAgg(t, s.query, math.MinInt64, math.MaxInt64); a.Count != acked {
		t.Fatalf("query listener saw %d points, meters acked %d", a.Count, acked)
	}
	out, err := s.stop()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	wantOutput(t, out, "query listener on 127.0.0.1:", "session errors: 0")
}

// TestServeBadFlags: a bad flag value and a demo flag are both refused.
func TestServeBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-shards", "not-a-number"}, &out, nil); err == nil {
		t.Fatal("bad flag value should error")
	}
	err := run(context.Background(), []string{"-meters", "1"}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -meters") {
		t.Fatalf("-meters: err = %v, want an unknown-flag refusal", err)
	}
}

// TestServePersistenceRoundTrip runs the server twice on one data
// directory, streaming the same fleet each time: the second start must
// recover the first run's history before serving, so its wire fleet count
// ends at exactly twice the first's.
func TestServePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-shards", "4", "-data-dir", dir, "-fsync", "off"}

	s := startServe(t, args...)
	acked := streamFleet(t, s.ingest, 2)
	first := fleetAgg(t, s.query, math.MinInt64, math.MaxInt64).Count
	if first != acked {
		t.Fatalf("first run: wire count %d, meters acked %d", first, acked)
	}
	out, err := s.stop()
	if err != nil {
		t.Fatalf("first run: %v\n%s", err, out)
	}
	wantOutput(t, out, "storage: "+dir, "recovered 0 meters", "storage flushed cleanly; on disk:", "session errors: 0")

	s = startServe(t, args...)
	if got := fleetAgg(t, s.query, math.MinInt64, math.MaxInt64).Count; got != first {
		t.Fatalf("restart recovered %d points, first run stored %d", got, first)
	}
	streamFleet(t, s.ingest, 2)
	second := fleetAgg(t, s.query, math.MinInt64, math.MaxInt64).Count
	out, err = s.stop()
	if err != nil {
		t.Fatalf("second run: %v\n%s", err, out)
	}
	wantOutput(t, out, "recovered 2 meters")
	if strings.Contains(out, "recovered 2 meters — 0 points from 0 segments, 0 replayed") {
		t.Errorf("second run recovered no data:\n%s", out)
	}
	if second != 2*first {
		t.Errorf("second run ends with %d points, want 2×%d", second, first)
	}
}

// TestServeBadFsyncMode rejects unknown -fsync values up front.
func TestServeBadFsyncMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data-dir", t.TempDir(), "-fsync", "sometimes"}, &out, nil); err == nil {
		t.Fatal("unknown fsync mode should error")
	}
}

// TestShutdownFlushes covers the signal path's drain + flush helper: the
// storage engine must be flushed cleanly and the next open must see the
// flushed segments rather than replaying everything.
func TestShutdownFlushes(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: 2, Sync: storage.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(server.Config{Shards: 2, Store: eng.Store()})
	svc.SetIngest(eng)
	if _, err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := shutdown(svc, eng, &out); err != nil {
		t.Fatalf("shutdown: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"robustness:", "storage flushed cleanly", "shutdown complete"} {
		if !strings.Contains(got, want) {
			t.Errorf("shutdown output missing %q:\n%s", want, got)
		}
	}
}
