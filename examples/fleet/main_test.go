package main

import (
	"bytes"
	"strings"
	"testing"

	"symmeter/internal/query"
	"symmeter/internal/server"
)

// startServer runs an in-memory aggregation service with a query engine on
// an ephemeral port, the way serve assembles one.
func startServer(t *testing.T) string {
	t.Helper()
	svc := server.New(server.Config{Shards: 4})
	svc.SetQueryHandler(query.New(svc.Store()))
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return addr.String()
}

// TestFleetDemo streams two meters to a live server, twice: the second run
// starts from a non-zero fleet count, as against a server that recovered
// history, and its count check must still hold.
func TestFleetDemo(t *testing.T) {
	addr := startServer(t)
	// The two training days precede the streamed day, so live timestamps
	// start at 2·86400 = 172800.
	args := []string{
		"-addr", addr, "-meters", "2", "-seconds", "600", "-window", "60",
		"-hist", "-qfrom", "172800", "-qto", "173100",
	}
	for run1 := range 2 {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %d: %v\n%s", run1, err, out.String())
		}
		got := out.String()
		for _, want := range []string{
			"fleet: 2 meters",
			"symbols/sec)",
			"exactly the ",
			"query: fleet mean",
			"over [172800,173100)",
			"compressed-domain",
			"query: histogram (level 4):",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("run %d output missing %q:\n%s", run1, want, got)
			}
		}
		if n := strings.Count(got, "raw -> "); n != 2 {
			t.Errorf("run %d: want 2 per-meter summary lines, got %d:\n%s", run1, n, got)
		}
		if strings.Contains(got, "— 0 points") || (run1 == 1 && strings.Contains(got, "count 0 ->")) {
			t.Errorf("run %d: unexpected empty count:\n%s", run1, got)
		}
	}
}

// TestFleetDemoBadFlags: a demo with no server address or no meters is
// refused.
func TestFleetDemoBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-meters", "1"}, &out); err == nil {
		t.Fatal("missing -addr should error")
	}
	if err := run([]string{"-addr", startServer(t), "-meters", "0"}, &out); err == nil || !strings.Contains(err.Error(), "at least one meter") {
		t.Fatalf("zero meters: err = %v, want a refusal", err)
	}
	if err := run([]string{"-meters", "not-a-number"}, &out); err == nil {
		t.Fatal("bad flag value should error")
	}
}
