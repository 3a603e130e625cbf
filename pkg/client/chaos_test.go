package client_test

import (
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"symmeter/internal/netfault"
	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/pkg/client"
)

// chaosBackoff is the tight retry policy the chaos tests run Sessions under:
// enough attempts to ride out every scheduled fault, short enough that a
// wedged path fails the test instead of stalling it.
var chaosBackoff = client.Backoff{Min: time.Millisecond, Max: 20 * time.Millisecond, Attempts: 100}

// durableServer starts a WAL-backed engine + service on a loopback port.
func durableServer(t *testing.T) (*server.Service, *storage.Engine, string) {
	t.Helper()
	eng, err := storage.Open(storage.Options{
		Dir: t.TempDir(), Shards: 4, Sync: storage.SyncOff, SegmentBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(server.Config{Store: eng.Store()})
	svc.SetIngest(eng)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		svc.Close()
		eng.Close()
	})
	return svc, eng, addr.String()
}

// requireExactlyOnce proves store holds batches 0..nBatches-1 of meterID
// exactly once, bit-identical to an in-memory oracle fed the same stream —
// the chaos invariant: nothing acked lost, nothing committed twice.
func requireExactlyOnce(t *testing.T, store *server.Store, meterID uint64, table *symbolic.Table, nBatches int) {
	t.Helper()
	oracle := server.NewStore(4)
	if err := oracle.StartSession(meterID); err != nil {
		t.Fatal(err)
	}
	if err := oracle.PushTable(meterID, table); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < nBatches; idx++ {
		syms := degradedSymbols(meterID, idx, table)
		pts := make([]symbolic.SymbolPoint, len(syms))
		for j, s := range syms {
			pts[j] = symbolic.SymbolPoint{T: degradedFirstT(idx) + int64(j)*900, S: s}
		}
		if err := appendNext(oracle, meterID, pts); err != nil {
			t.Fatal(err)
		}
	}
	got := query.New(store)
	want := query.New(oracle)
	ga, gok := got.Aggregate(meterID, 0, math.MaxInt64)
	wa, wok := want.Aggregate(meterID, 0, math.MaxInt64)
	if gok != wok || ga.Count != wa.Count ||
		math.Float64bits(ga.Sum) != math.Float64bits(wa.Sum) ||
		math.Float64bits(ga.Min) != math.Float64bits(wa.Min) ||
		math.Float64bits(ga.Max) != math.Float64bits(wa.Max) {
		t.Fatalf("store diverged from acked oracle: got %+v (ok=%v), want %+v (ok=%v)", ga, gok, wa, wok)
	}
	var gh, wh query.Histogram
	if _, err := got.HistogramInto(&gh, meterID, 0, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if _, err := want.HistogramInto(&wh, meterID, 0, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	for s := range wh.Counts {
		if gh.Counts[s] != wh.Counts[s] {
			t.Fatalf("symbol %d: store %d, oracle %d — duplicate or lost batch", s, gh.Counts[s], wh.Counts[s])
		}
	}
}

// sessionRun pushes the table and nBatches batches through a Session dialed
// via inj, requiring every operation to commit (the backoff budget must
// absorb the whole schedule).
func sessionRun(t *testing.T, addr string, inj *netfault.Injector, meterID uint64, table *symbolic.Table, nBatches int) *client.Session {
	t.Helper()
	s, err := client.DialSession(addr, meterID, client.SessionConfig{
		Backoff:    chaosBackoff,
		AckTimeout: 250 * time.Millisecond,
		Dialer:     inj.Dial,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := s.PushTable(table); err != nil {
		t.Fatalf("push table: %v", err)
	}
	for idx := 0; idx < nBatches; idx++ {
		if err := s.Append(degradedFirstT(idx), 900, degradedSymbols(meterID, idx, table)); err != nil {
			t.Fatalf("append %d: %v", idx, err)
		}
	}
	s.Close()
	return s
}

// TestSessionExactlyOnceUnderNetFaults is the chaos matrix: one schedule per
// failure class the ingest path must ride out — resets at frame boundaries
// and mid-frame, torn writes, black holes in both directions, latency
// spikes, transient dial-side errors. Under every schedule each Append
// returns nil and the durable store matches the acked oracle bit-exactly.
func TestSessionExactlyOnceUnderNetFaults(t *testing.T) {
	const meter, batches = 42, 8
	schedules := []struct {
		name   string
		faults []netfault.Fault
	}{
		{"reset-after-handshake", []netfault.Fault{
			{Op: netfault.OpWrite, AfterBytes: 12, Action: netfault.Reset}}},
		{"reset-mid-table", []netfault.Fault{
			{Op: netfault.OpWrite, AfterBytes: 40, Action: netfault.Reset}}},
		{"reset-mid-batch", []netfault.Fault{
			{Op: netfault.OpWrite, AfterBytes: 600, Action: netfault.Reset}}},
		{"short-write-mid-batch", []netfault.Fault{
			{Op: netfault.OpWrite, AfterBytes: 700, Action: netfault.ShortWrite}}},
		{"black-holed-acks", []netfault.Fault{
			{Op: netfault.OpRead, N: 3, Action: netfault.BlackHole}}},
		{"black-holed-writes", []netfault.Fault{
			{Op: netfault.OpWrite, AfterBytes: 900, Action: netfault.BlackHole}}},
		{"latency-spike", []netfault.Fault{
			{Op: netfault.OpWrite, N: 3, Action: netfault.Delay, Delay: 30 * time.Millisecond}}},
		{"read-reset", []netfault.Fault{
			{Op: netfault.OpRead, N: 2, Action: netfault.Reset}}},
		{"transient-write-error", []netfault.Fault{
			{Op: netfault.OpWrite, N: 2, Action: netfault.Error}}},
		{"repeated-resets", []netfault.Fault{
			{Op: netfault.OpWrite, N: 2, Action: netfault.Reset},
			{Op: netfault.OpRead, N: 5, Action: netfault.Reset},
			{Op: netfault.OpWrite, N: 9, Action: netfault.Reset}}},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			_, eng, addr := durableServer(t)
			inj := netfault.New(sc.faults...)
			table := degradedTable(t)
			sessionRun(t, addr, inj, meter, table, batches)
			if n := inj.Remaining(); n != 0 {
				t.Fatalf("%d scheduled faults never fired — the schedule did not exercise the wire", n)
			}
			requireExactlyOnce(t, eng.Store(), meter, table, batches)
			if got := eng.LastSeq(meter); got != batches+1 {
				t.Fatalf("high-water mark %d, want %d", got, batches+1)
			}
		})
	}
}

// TestSessionSuppressesCommittedInFlight pins the client half of
// exactly-once: the server commits a batch but its ack is black-holed; the
// reconnect handshake's high-water mark proves the commit, so the client
// retires the in-flight frame WITHOUT resending — no replay, no duplicate.
func TestSessionSuppressesCommittedInFlight(t *testing.T) {
	svc, eng, addr := durableServer(t)
	// Reads on conn 1: handshake ack (1), table ack (2), then the batch ack
	// is swallowed.
	inj := netfault.New(netfault.Fault{Op: netfault.OpRead, N: 3, Action: netfault.BlackHole})
	table := degradedTable(t)
	st := sessionRun(t, addr, inj, 7, table, 1).Stats()
	if st.Reconnects != 1 || st.Replays != 0 {
		t.Fatalf("reconnects=%d replays=%d, want 1 reconnect and 0 replays (ack lost, commit proven by handshake)", st.Reconnects, st.Replays)
	}
	requireExactlyOnce(t, eng.Store(), 7, table, 1)
	if n := svc.Stats().DuplicateBatches; n != 0 {
		t.Fatalf("server suppressed %d duplicates — the client resent a committed seq", n)
	}
}

// TestSessionReplaysUncommittedInFlight pins the other arm: the connection
// dies before the batch reaches the server, the reconnect handshake's mark
// is below the in-flight seq, and the client replays it under the same seq.
func TestSessionReplaysUncommittedInFlight(t *testing.T) {
	_, eng, addr := durableServer(t)
	// Writes: handshake (1), table (2), then the first batch write is reset
	// before any byte arrives.
	inj := netfault.New(netfault.Fault{Op: netfault.OpWrite, N: 3, Action: netfault.Reset})
	table := degradedTable(t)
	st := sessionRun(t, addr, inj, 9, table, 1).Stats()
	if st.Reconnects != 1 || st.Replays != 1 {
		t.Fatalf("reconnects=%d replays=%d, want 1 and 1 (batch never committed, must replay)", st.Reconnects, st.Replays)
	}
	requireExactlyOnce(t, eng.Store(), 9, table, 1)
}

// TestSessionKillNineExactlyOnce is the end-to-end crash drill: the server —
// a child process on a SyncAlways engine — is SIGKILLed twice mid-stream and
// restarted over the same directory; the client Session rides through both
// via reconnect + sequence replay. Afterwards the recovered directory must
// hold every acknowledged batch exactly once, bit-exact against the oracle.
func TestSessionKillNineExactlyOnce(t *testing.T) {
	if os.Getenv("SYMMETER_SESSION_CHILD") == "1" {
		sessionChild()
		return
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics required")
	}
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	dir := t.TempDir()
	// Reserve a loopback address the child can re-listen on after each kill.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := rsv.Addr().String()
	rsv.Close()

	startChild := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestSessionKillNineExactlyOnce$")
		cmd.Env = append(os.Environ(),
			"SYMMETER_SESSION_CHILD=1",
			"SYMMETER_SESSION_DIR="+dir,
			"SYMMETER_SESSION_ADDR="+addr)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The child prints "ready" once it is listening.
		buf := make([]byte, 64)
		ready := make(chan error, 1)
		go func() {
			_, err := out.Read(buf)
			ready <- err
		}()
		select {
		case err := <-ready:
			if err != nil || !strings.HasPrefix(string(buf), "ready") {
				cmd.Process.Kill()
				t.Fatalf("child never came up: %q err=%v", buf, err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("child start timed out")
		}
		return cmd
	}

	child := startChild()
	const meter, batches = 5, 30
	table := degradedTable(t)
	s, err := client.DialSession(addr, meter, client.SessionConfig{
		Backoff:    client.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond, Attempts: 400},
		AckTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushTable(table); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < batches; idx++ {
		if idx == 10 || idx == 20 {
			if err := child.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			child.Wait()
			child = startChild() // recovers the directory, re-listens
		}
		if err := s.Append(degradedFirstT(idx), 900, degradedSymbols(meter, idx, table)); err != nil {
			t.Fatalf("append %d across kills: %v", idx, err)
		}
	}
	s.Close()
	if n := s.Stats().Reconnects; n < 2 {
		t.Fatalf("session reconnected %d times across two kills, want >= 2", n)
	}
	child.Process.Kill()
	child.Wait()

	// Every ack was backed by a synced WAL write: the recovered directory
	// must reproduce the full acked stream exactly once.
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: 4, Sync: storage.SyncAlways, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer eng.Close()
	requireExactlyOnce(t, eng.Store(), meter, table, batches)
	if got := eng.LastSeq(meter); got != batches+1 {
		t.Fatalf("recovered high-water mark %d, want %d", got, batches+1)
	}
}

// sessionChild is the re-exec'd server: a SyncAlways engine over the shared
// directory (acks imply fsync — what makes kill -9 survivable), serving the
// reserved address until the parent's SIGKILL.
func sessionChild() {
	eng, err := storage.Open(storage.Options{
		Dir: os.Getenv("SYMMETER_SESSION_DIR"), Shards: 4,
		Sync: storage.SyncAlways, SegmentBytes: 64 << 10,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(2)
	}
	svc := server.New(server.Config{Store: eng.Store()})
	svc.SetIngest(eng)
	if _, err := svc.Listen(os.Getenv("SYMMETER_SESSION_ADDR")); err != nil {
		fmt.Fprintln(os.Stderr, "child listen:", err)
		os.Exit(2)
	}
	fmt.Println("ready")
	select {} // SIGKILL is the only exit
}

// FuzzNetFaultIngest drives a Session through a fuzz-chosen fault schedule
// against a live server. The invariant holds for every schedule, including
// ones the backoff budget cannot absorb: the store ends bit-exact on the
// first k batches for some k between the acked count and the sent count —
// acked data is never lost, nothing commits twice, and no schedule may
// wedge the client past its deadline budget.
func FuzzNetFaultIngest(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(3), uint16(600), uint8(3))
	f.Add(uint8(1), uint8(2), uint8(3), uint16(0), uint8(2))
	f.Add(uint8(2), uint8(1), uint8(4), uint16(700), uint8(4))
	f.Add(uint8(2), uint8(4), uint8(2), uint16(0), uint8(1))
	f.Add(uint8(1), uint8(0), uint8(2), uint16(30), uint8(3))
	table := fuzzTable()
	f.Fuzz(func(t *testing.T, opB, actionB, n uint8, afterBytes uint16, nb uint8) {
		op := netfault.Op(opB % 3)
		action := netfault.Action(actionB % 5)
		batches := int(nb%4) + 1
		fault := netfault.Fault{
			Op: op, N: int(n % 8), Action: action,
			AfterBytes: int64(afterBytes),
			Delay:      time.Duration(n%8) * 5 * time.Millisecond,
		}
		svc := server.New(server.Config{Shards: 4})
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		inj := netfault.New(fault)
		const meter = 3
		s, err := client.DialSession(addr.String(), meter, client.SessionConfig{
			Backoff:    client.Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 8},
			AckTimeout: 100 * time.Millisecond,
			Dialer:     inj.Dial,
		})
		acked := 0
		if err == nil {
			if err := s.PushTable(table); err == nil {
				acked = 1
				for idx := 0; idx < batches; idx++ {
					if err := s.Append(degradedFirstT(idx), 900, degradedSymbols(meter, idx, table)); err != nil {
						break
					}
					acked++
				}
			}
			s.Close()
		}
		// Store state: the first k committed frames for some k in
		// [acked, sent] — stop-and-wait means no later frame can commit
		// before an earlier one is acked.
		hwm := int(svc.Store().LastSeq(meter))
		if hwm < acked {
			t.Fatalf("acked %d frames but server committed only %d — acked data lost", acked, hwm)
		}
		if hwm > batches+1 {
			t.Fatalf("server committed %d frames, only %d were ever sent", hwm, batches+1)
		}
		if hwm > 0 {
			requireExactlyOnce(t, svc.Store(), meter, table, hwm-1)
		}
	})
}

// fuzzTable builds the fuzz fixture table without a *testing.T.
func fuzzTable() *symbolic.Table {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		panic(err)
	}
	return table
}

// TestSessionStats pins the Stats snapshot against the retry machinery: a
// failed first dial handshake consumes a backoff sleep (Retries,
// LastBackoff), and a reset mid-batch costs one reconnect and one replay —
// all visible in one snapshot.
func TestSessionStats(t *testing.T) {
	_, eng, addr := durableServer(t)
	inj := netfault.New(
		// Write 1 is the first connection's handshake: erroring it makes
		// DialSession back off and redial (a counted retry sleep).
		netfault.Fault{Op: netfault.OpWrite, N: 1, Action: netfault.Error},
		// A firing fault short-circuits later faults' counting, so this one
		// never sees write 1: its matches are the redialed handshake (1),
		// the table (2), and the first batch (3) — reset before any byte of
		// the batch lands → reconnect + replay.
		netfault.Fault{Op: netfault.OpWrite, N: 3, Action: netfault.Reset},
	)
	table := degradedTable(t)
	s := sessionRun(t, addr, inj, 11, table, 1)
	st := s.Stats()
	if st.Reconnects != 1 || st.Replays != 1 {
		t.Fatalf("reconnects=%d replays=%d, want 1 and 1", st.Reconnects, st.Replays)
	}
	if st.Retries == 0 {
		t.Fatal("the failed first dial must count a backoff retry")
	}
	if st.LastBackoff <= 0 {
		t.Fatalf("LastBackoff = %v, want > 0 after a backoff sleep", st.LastBackoff)
	}
	requireExactlyOnce(t, eng.Store(), 11, table, 1)
}
