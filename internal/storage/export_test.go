package storage

import (
	"crypto/sha256"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// GroupInterval is the SyncGroup fsync cadence, for tests that time it.
const GroupInterval = groupInterval

// PushNext and AppendNext drive any server.Ingest the way a session does:
// each write takes the meter's next sequence number.
func PushNext(ing server.Ingest, meterID uint64, t *symbolic.Table) error {
	_, err := ing.PushTableSeq(meterID, ing.LastSeq(meterID)+1, t)
	return err
}

func AppendNext(ing server.Ingest, meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	n, _, err := ing.AppendSeq(meterID, ing.LastSeq(meterID)+1, pts)
	return n, err
}

// PushTableLegacy and AppendLegacy write the unsequenced 'T' and 'B' records
// that no ingest path writes any more but every directory from before
// sequencing holds, and recovery must keep reading with mark 0. Only tests
// whose subject is those records use them: the golden stream, the WAL replay
// fixtures, the legacy meters beside sequenced ones.
func (e *Engine) PushTableLegacy(meterID uint64, t *symbolic.Table) error {
	if err := e.logTable(recTable, 0, meterID, t); err != nil {
		return err
	}
	return e.store.PushTable(meterID, t)
}

func (e *Engine) AppendLegacy(meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	epoch, level, _, err := e.store.AdmitSeq(meterID, e.store.LastSeq(meterID)+1, true, len(pts))
	if err != nil {
		return 0, err
	}
	return e.commitBatch(recBatch, 0, meterID, epoch, level, pts)
}

// FileHashes maps every file under dir, by its path relative to dir, to the
// SHA-256 of its bytes: what a failed Open must leave unchanged.
func FileHashes(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	sums := make(map[string][sha256.Size]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		sums[strings.TrimPrefix(path, dir)] = sha256.Sum256(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}
