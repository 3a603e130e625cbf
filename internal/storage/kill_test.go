package storage

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"symmeter/internal/query"
	"symmeter/internal/server"
)

// TestKillNineRecovery is the kill-and-restart equivalence check: a child
// process (this test binary re-executed) ingests deterministic batches
// through a SyncOff engine, acknowledging each fully-committed round on
// stdout; the parent SIGKILLs it mid-stream, recovers the directory and
// requires (a) every acknowledged round to be present and (b) the recovered
// aggregates to be bit-exact against an in-memory oracle fed the same
// batches. Runs under -race in CI's recovery-smoke job.
func TestKillNineRecovery(t *testing.T) {
	if os.Getenv("SYMMETER_KILL_CHILD") == "1" {
		killChild()
		return
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics required")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestKillNineRecovery$")
	cmd.Env = append(os.Environ(), "SYMMETER_KILL_CHILD=1", "SYMMETER_KILL_DIR="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Read acks until the stream has sealed blocks, spilled segments and a
	// couple of flushes behind it, then kill without ceremony — the child is
	// almost certainly mid-append or mid-WAL-write.
	lastAck := -1
	sc := bufio.NewScanner(out)
	deadline := time.After(60 * time.Second)
	ackCh := make(chan int, 256)
	go func() {
		defer close(ackCh)
		for sc.Scan() {
			line := sc.Text()
			if n, ok := strings.CutPrefix(line, "ack "); ok {
				if v, err := strconv.Atoi(n); err == nil {
					ackCh <- v
				}
			}
		}
	}()
read:
	for {
		select {
		case v, ok := <-ackCh:
			if !ok {
				break read
			}
			lastAck = v
			if v >= 47 { // ~4.6k points/meter: seals, spills, one flush
				break read
			}
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("child produced no progress (last ack %d)", lastAck)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // signal: killed — expected
	if lastAck < 0 {
		t.Fatal("child never acknowledged a round")
	}

	eng := openTest(t, dir, SyncOff)
	defer eng.Close()
	table := testTable(t)
	ge := query.New(eng.Store())
	for _, m := range testMeters {
		h, ok := eng.Store().Meter(m)
		if !ok {
			t.Fatalf("meter %d lost", m)
		}
		n := h.TotalSymbols()
		// Batches commit atomically (the WAL record is one write), so the
		// recovered stream is a whole number of batches…
		if n%96 != 0 {
			t.Fatalf("meter %d recovered %d points — not a whole number of 96-point batches", m, n)
		}
		k := n / 96
		// …covering at least every acknowledged round.
		if k < lastAck+1 {
			t.Fatalf("meter %d recovered %d batches, but %d rounds were acknowledged", m, k, lastAck+1)
		}
		// Bit-exact equivalence against an oracle fed exactly those batches.
		want := server.NewStore(4)
		if err := want.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := want.PushTable(m, table); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < k; idx++ {
			if _, err := AppendNext(want, m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
		we := query.New(want)
		for _, win := range [][2]int64{{0, math.MaxInt64}, {1000 * 900, 3000 * 900}} {
			ga, _ := ge.Aggregate(m, win[0], win[1])
			wa, _ := we.Aggregate(m, win[0], win[1])
			if ga.Count != wa.Count ||
				math.Float64bits(ga.Sum) != math.Float64bits(wa.Sum) ||
				math.Float64bits(ga.Min) != math.Float64bits(wa.Min) ||
				math.Float64bits(ga.Max) != math.Float64bits(wa.Max) {
				t.Fatalf("meter %d window %v: recovered %+v, oracle %+v", m, win, ga, wa)
			}
			var gh, wh query.Histogram
			if _, err := ge.HistogramInto(&gh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := we.HistogramInto(&wh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			for s := range wh.Counts {
				if gh.Counts[s] != wh.Counts[s] {
					t.Fatalf("meter %d window %v symbol %d: %d vs %d", m, win, s, gh.Counts[s], wh.Counts[s])
				}
			}
		}
	}
}

// killChild is the re-exec'd ingest loop: rounds of one batch per meter,
// an "ack N" line after round N fully commits, a Flush every 20 rounds, and
// no orderly shutdown ever — the parent's SIGKILL is the only exit.
func killChild() {
	dir := os.Getenv("SYMMETER_KILL_DIR")
	eng, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(2)
	}
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	table := mustTable(vals)
	for _, m := range testMeters {
		if err := eng.StartSession(m); err != nil {
			fmt.Fprintln(os.Stderr, "child session:", err)
			os.Exit(2)
		}
		if err := PushNext(eng, m, table); err != nil {
			fmt.Fprintln(os.Stderr, "child table:", err)
			os.Exit(2)
		}
	}
	for idx := 0; ; idx++ {
		for _, m := range testMeters {
			if _, err := AppendNext(eng, m, genBatch(m, idx, table)); err != nil {
				fmt.Fprintln(os.Stderr, "child append:", err)
				os.Exit(2)
			}
		}
		fmt.Printf("ack %d\n", idx)
		if idx > 0 && idx%20 == 0 {
			if err := eng.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "child flush:", err)
				os.Exit(2)
			}
		}
	}
}
