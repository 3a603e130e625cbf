package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/storage"
)

// TestServeEndToEnd runs the whole binary in-process: a real listener on
// 127.0.0.1:0, two concurrent meters, and the printed reconstruction
// summary.
func TestServeEndToEnd(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-meters", "2", "-shards", "4", "-seconds", "600", "-window", "60",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"server listening on 127.0.0.1:",
		"(4 shards)",
		"fleet: 2 meters",
		"symbols/sec)",
		"compressed-domain",
		"query: fleet mean",
		"netquery: fleet mean",
		"matches in-process",
		"bytes in",
		"session errors: 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "raw -> "); n != 2 {
		t.Errorf("want 2 per-meter summary lines, got %d:\n%s", n, got)
	}
}

// TestServeHistogramAndProfiles covers the query-range flags, the fleet
// histogram, and the pprof plumbing in one end-to-end run.
func TestServeHistogramAndProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out bytes.Buffer
	// The two training days precede the streamed day, so live timestamps
	// start at 2·86400 = 172800.
	err := run([]string{
		"-meters", "1", "-shards", "2", "-seconds", "600", "-window", "60",
		"-hist", "-qfrom", "172800", "-qto", "173100",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "query: histogram (level 4):") {
		t.Errorf("output missing histogram line:\n%s", got)
	}
	// The generator simulates missing windows, so the exact count varies;
	// the range must be echoed and must cover at least one point.
	if !strings.Contains(got, "over [172800,173100)") || strings.Contains(got, "— 0 points") {
		t.Errorf("query over [172800,173100) should report its range and cover points:\n%s", got)
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
	var out bytes.Buffer
	err := run([]string{
		"-meters", "1", "-shards", "2", "-seconds", "60", "-window", "60",
		"-memprofile", mem,
	}, &out)
	if err == nil {
		t.Fatalf("run succeeded with unwritable -memprofile %s", mem)
	}
}

// TestServeQueryListener runs the fleet with a dedicated query-only
// listener and a finite idle timeout: the wire demo must answer through the
// second listener and still match the in-process engine.
func TestServeQueryListener(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-meters", "2", "-shards", "4", "-seconds", "600", "-window", "60",
		"-query-addr", "127.0.0.1:0", "-idle-timeout", "5s",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"query listener on 127.0.0.1:",
		"netquery: fleet mean",
		"matches in-process",
		"session errors: 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestServeBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-meters", "not-a-number"}, &out); err == nil {
		t.Fatal("bad flag value should error")
	}
	if err := run([]string{"-meters", "0"}, &out); err == nil {
		t.Fatal("zero meters should error")
	}
}

// TestServePersistenceRoundTrip runs the fleet twice against one data
// directory: the first run persists through the WAL + segment engine, the
// second must recover that history before serving and end with strictly
// more stored symbols than a cold run produces.
func TestServePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-meters", "2", "-shards", "4", "-seconds", "600", "-window", "60",
		"-data-dir", dir, "-fsync", "off",
	}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	got := first.String()
	for _, want := range []string{
		"storage: " + dir,
		"recovered 0 meters",
		"storage: flushed; on disk:",
		"session errors: 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("first run missing %q:\n%s", want, got)
		}
	}

	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatalf("second run: %v\n%s", err, second.String())
	}
	got = second.String()
	if !strings.Contains(got, "recovered 2 meters") {
		t.Errorf("second run should recover both meters:\n%s", got)
	}
	if strings.Contains(got, "recovered 2 meters — 0 points from 0 segments, 0 replayed") {
		t.Errorf("second run recovered no data:\n%s", got)
	}
	// Two identical runs on one directory: the second serves both days, so
	// its fleet query covers twice the points. Cheap proxy: the stored
	// symbol total printed by run 2 exceeds run 1's.
	if c1, c2 := storedSymbols(t, first.String()), storedSymbols(t, second.String()); c2 <= c1 {
		t.Errorf("second run stored %d symbols, first %d — recovery added nothing", c2, c1)
	}
}

// storedSymbols extracts N from "… -> N symbols in …" on the fleet line.
func storedSymbols(t *testing.T, out string) int {
	t.Helper()
	_, rest, ok := strings.Cut(out, "raw measurements -> ")
	if !ok {
		t.Fatalf("no fleet line in output:\n%s", out)
	}
	numStr, _, ok := strings.Cut(rest, " symbols in ")
	if !ok {
		t.Fatalf("unparseable fleet line:\n%s", out)
	}
	n, err := strconv.Atoi(numStr)
	if err != nil {
		t.Fatalf("fleet symbol count %q: %v", numStr, err)
	}
	return n
}

// TestServeBadFsyncMode rejects unknown -fsync values up front.
func TestServeBadFsyncMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-data-dir", t.TempDir(), "-fsync", "sometimes"}, &out); err == nil {
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
