// Sequenced-ingest durability tests: the engine's server.Ingest
// implementation must make the per-meter high-water mark exactly as durable
// as the batches it covers — recovery restores it from the replayed WAL, a
// duplicate seq never commits twice (even across a crash), and a gap is a
// loud refusal rather than a silent reorder. External test package for the
// same reason as chaos_test.go.
package storage_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
	"symmeter/pkg/client"
)

// TestSequencedAppendRecoversHighWaterMark: sequenced commits survive a
// crash byte-identically AND the high-water mark comes back with them, while
// a legacy (unsequenced) meter in the same directory recovers with mark 0.
func TestSequencedAppendRecoversHighWaterMark(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)

	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if dup, err := eng.PushTableSeq(1, 1, table); dup || err != nil {
		t.Fatalf("PushTableSeq: dup=%v err=%v", dup, err)
	}
	for idx := 0; idx < 3; idx++ {
		n, dup, err := eng.AppendSeq(1, uint64(2+idx), chaosBatch(1, idx, table))
		if err != nil || dup || n != 96 {
			t.Fatalf("AppendSeq idx %d: n=%d dup=%v err=%v", idx, n, dup, err)
		}
	}
	if got := eng.LastSeq(1); got != 4 {
		t.Fatalf("live LastSeq: %d, want 4", got)
	}
	// A legacy meter beside it, written in the unsequenced records.
	if err := eng.StartSession(2); err != nil {
		t.Fatal(err)
	}
	if err := eng.PushTableLegacy(2, table); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AppendLegacy(2, chaosBatch(2, 0, table)); err != nil {
		t.Fatal(err)
	}
	eng.Abandon() // crash shape

	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if got := re.LastSeq(1); got != 4 {
		t.Fatalf("recovered LastSeq(1): %d, want 4", got)
	}
	if got := re.LastSeq(2); got != 0 {
		t.Fatalf("recovered LastSeq(2): %d, want 0 for a legacy meter", got)
	}
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1, 2}, map[uint64][]int{1: {0, 1, 2}, 2: {0}}),
		[]uint64{1, 2})
}

// TestSequencedDuplicateSuppressed: a retransmitted seq is acked as a
// duplicate without committing — live, and again after a crash when the
// client's retry races recovery's restored mark.
func TestSequencedDuplicateSuppressed(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)

	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table)); err != nil {
		t.Fatal(err)
	}
	// Retransmit both the table push and the batch.
	if dup, err := eng.PushTableSeq(1, 1, table); !dup || err != nil {
		t.Fatalf("dup PushTableSeq: dup=%v err=%v", dup, err)
	}
	n, dup, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table))
	if !dup || n != 0 || err != nil {
		t.Fatalf("dup AppendSeq: n=%d dup=%v err=%v", n, dup, err)
	}
	if got := eng.LastSeq(1); got != 2 {
		t.Fatalf("LastSeq after dups: %d, want 2", got)
	}
	eng.Abandon()

	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if err := re.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if n, dup, err := re.AppendSeq(1, 2, chaosBatch(1, 0, table)); !dup || n != 0 || err != nil {
		t.Fatalf("post-recovery dup AppendSeq: n=%d dup=%v err=%v", n, dup, err)
	}
	// Exactly one copy of the batch, despite three sends across two lives.
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// TestSequencedGapRefused: a seq that skips ahead is refused with ErrSeqGap,
// commits nothing, and leaves the session able to continue at the correct
// next seq.
func TestSequencedGapRefused(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer eng.Close()

	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AppendSeq(1, 5, chaosBatch(1, 0, table)); !errors.Is(err, server.ErrSeqGap) {
		t.Fatalf("gap AppendSeq: got %v, want ErrSeqGap", err)
	}
	if _, err := eng.PushTableSeq(1, 9, table); !errors.Is(err, server.ErrSeqGap) {
		t.Fatalf("gap PushTableSeq: got %v, want ErrSeqGap", err)
	}
	if got := eng.LastSeq(1); got != 1 {
		t.Fatalf("LastSeq after gaps: %d, want 1", got)
	}
	if n, dup, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table)); err != nil || dup || n != 96 {
		t.Fatalf("AppendSeq after gap refusals: n=%d dup=%v err=%v", n, dup, err)
	}
	requireStoresEqual(t, eng.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// TestFormat2ManifestMigrates: a format-2 directory (WAL generations, no
// sequencing) opens cleanly, keeps its wal_gen, and is rewritten forward to
// format 3 on the spot.
func TestFormat2ManifestMigrates(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"),
		[]byte(`{"format": 2, "shards": 4, "wal_gen": 2, "segments": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	if gen := eng.Health().WALGen; gen != 2 {
		t.Fatalf("WALGen after migration: %d, want the format-2 manifest's 2", gen)
	}
	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"format": 3`) {
		t.Fatalf("manifest not migrated to format 3:\n%s", raw)
	}
	if !strings.Contains(string(raw), `"wal_gen": 2`) {
		t.Fatalf("migration lost wal_gen:\n%s", raw)
	}
	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if got := re.LastSeq(1); got != 2 {
		t.Fatalf("recovered LastSeq at generation 2: %d, want 2", got)
	}
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// TestIngestContract runs one op script against both Ingest implementations
// — the in-memory store and the durable engine — and requires the same
// verdict from each, op by op: count, duplicate flag, error class and the
// high-water mark afterwards. Meter 1 gets a table, meter 2 never does, and
// meter 99 never starts a session.
func TestIngestContract(t *testing.T) {
	table := chaosTable(t)
	batch := chaosBatch(1, 0, table)
	wrongLevel := []symbolic.SymbolPoint{{T: 0, S: symbolic.NewSymbol(1, table.Level()+1)}}
	type verdict struct {
		n     int
		dup   bool
		class error // nil, or the sentinel the error matches
		mark  uint64
	}
	ops := []struct {
		name  string
		meter uint64
		seq   uint64
		table bool // PushTableSeq instead of AppendSeq
		pts   []symbolic.SymbolPoint
		want  verdict
	}{
		{"table", 1, 1, true, nil, verdict{0, false, nil, 1}},
		{"next batch", 1, 2, false, batch, verdict{96, false, nil, 2}},
		{"duplicate", 1, 2, false, batch, verdict{0, true, nil, 2}},
		{"duplicate table", 1, 1, true, nil, verdict{0, true, nil, 2}},
		{"gap", 1, 4, false, batch, verdict{0, false, server.ErrSeqGap, 2}},
		{"table gap", 1, 9, true, nil, verdict{0, false, server.ErrSeqGap, 2}},
		{"empty batch", 1, 3, false, nil, verdict{0, false, server.ErrEmptyBatch, 2}},
		{"bad symbol", 1, 3, false, wrongLevel, verdict{0, false, server.ErrBadSymbol, 2}},
		{"seq 0", 1, 0, false, batch, verdict{0, true, nil, 2}},
		{"unknown meter", 99, 1, false, batch, verdict{0, false, server.ErrUnknownMeter, 0}},
		{"unknown meter table", 99, 1, true, nil, verdict{0, false, server.ErrUnknownMeter, 0}},
		{"no table", 2, 1, false, batch, verdict{0, false, server.ErrNoTable, 0}},
		{"no table, empty batch", 2, 1, false, nil, verdict{0, false, server.ErrNoTable, 0}},
		{"no table, gap", 2, 2, false, batch, verdict{0, false, server.ErrSeqGap, 0}},
		{"no table, seq 0", 2, 0, false, batch, verdict{0, true, nil, 0}},
		{"next batch after refusals", 1, 3, false, chaosBatch(1, 1, table), verdict{96, false, nil, 3}},
	}
	classOf := func(err error) error {
		for _, c := range []error{server.ErrSeqGap, server.ErrEmptyBatch, server.ErrBadSymbol, server.ErrUnknownMeter, server.ErrNoTable} {
			if errors.Is(err, c) {
				return c
			}
		}
		return err
	}
	eng := chaosOpen(t, t.TempDir(), nil, storage.SyncOff, time.Hour)
	defer eng.Close()
	impls := []struct {
		name string
		ing  server.Ingest
	}{{"store", server.NewStore(4)}, {"engine", eng}}
	for _, impl := range impls {
		for _, m := range []uint64{1, 2} {
			if err := impl.ing.StartSession(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range ops {
		for _, impl := range impls {
			var got verdict
			var err error
			if op.table {
				got.dup, err = impl.ing.PushTableSeq(op.meter, op.seq, table)
			} else {
				got.n, got.dup, err = impl.ing.AppendSeq(op.meter, op.seq, op.pts)
			}
			got.class, got.mark = classOf(err), impl.ing.LastSeq(op.meter)
			if w := op.want; got != w {
				t.Fatalf("%s on the %s: got n=%d dup=%v class=%v mark=%d (err %v), want n=%d dup=%v class=%v mark=%d",
					op.name, impl.name, got.n, got.dup, got.class, got.mark, err, w.n, w.dup, w.class, w.mark)
			}
		}
	}
	requireStoresEqual(t, eng.Store(), impls[0].ing.(*server.Store), []uint64{1, 2})
}

// TestLegacyStreamAdvancesMark: a v1 stream advances no mark. Protocol v1 is
// retired, so the stream's handshake is refused before anything commits — the
// 'T' table and 'S' batch frames sent right behind it included — and a
// sequenced client dialing the same meter afterwards learns mark 0 and numbers
// its own frames from 1. On the in-memory store and through the engine, where
// the mark those frames earn also survives a crash.
func TestLegacyStreamAdvancesMark(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			cfg := server.Config{Shards: 4}
			var eng *storage.Engine
			if durable {
				eng = chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
				cfg.Store = eng.Store()
			}
			svc := server.New(cfg)
			var ing server.Ingest = svc.Store()
			if durable {
				svc.SetIngest(eng)
				ing = eng
			}
			addr, err := svc.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			// The v1 stream, in one write: a 9-byte handshake (version 1 |
			// meterID), a 'T' table frame and an 'S' batch frame (firstT |
			// window | packed symbols).
			const meter = 8
			table := chaosTable(t)
			syms := []symbolic.Symbol{table.Encode(1), table.Encode(2)}
			var stream []byte
			frame := func(typ byte, payload []byte) {
				stream = binary.BigEndian.AppendUint32(append(stream, typ), uint32(len(payload)))
				stream = append(stream, payload...)
			}
			frame(transport.FrameHandshake, binary.BigEndian.AppendUint64([]byte{1}, meter))
			frame('T', symbolic.MarshalTable(table))
			batch, err := symbolic.AppendPack(binary.BigEndian.AppendUint64(make([]byte, 8), 900), syms)
			if err != nil {
				t.Fatal(err)
			}
			frame('S', batch)
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(stream); err != nil {
				t.Fatal(err)
			}
			if !svc.AwaitSessions(1, 5*time.Second) {
				t.Fatal("v1 session never ended")
			}
			if errs := svc.SessionErrors(); len(errs) != 1 || !errors.Is(errs[0], transport.ErrVersionMismatch) {
				t.Fatalf("v1 session errors: %v, want one version mismatch", errs)
			}
			if got, n := ing.LastSeq(meter), svc.Store().TotalSymbols(); got != 0 || n != 0 {
				t.Fatalf("refused v1 stream left mark %d and %d symbols", got, n)
			}

			s, err := client.DialSession(addr.String(), meter, client.SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Seq() != 0 {
				t.Fatalf("handshake mark %d after a refused v1 stream, want 0", s.Seq())
			}
			if err := s.PushTable(table); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(0, 900, syms); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if got := ing.LastSeq(meter); got != 2 {
				t.Fatalf("LastSeq after the sequenced table and batch: %d, want 2", got)
			}
			if got := svc.Store().TotalSymbols(); got != len(syms) {
				t.Fatalf("store holds %d symbols, want %d", got, len(syms))
			}
			if !durable {
				return
			}
			svc.Close()
			eng.Abandon()
			re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
			defer re.Close()
			if got := re.LastSeq(meter); got != 2 {
				t.Fatalf("recovered LastSeq: %d, want 2", got)
			}
		})
	}
}
