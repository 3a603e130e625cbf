package storage

import (
	"fmt"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

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
	_, err := e.commitTable(recTable, 0, meterID, t)
	return err
}

func (e *Engine) AppendLegacy(meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	v, ok := e.meters.Load(meterID)
	if !ok {
		return 0, fmt.Errorf("%w: %d", server.ErrNoTable, meterID)
	}
	return e.commitBatch(recBatch, 0, meterID, v.(*meterMeta), pts)
}
