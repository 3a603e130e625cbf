package server

import (
	"bytes"
	"hash/maphash"
	"sync"

	"symmeter/internal/symbolic"
)

// tableSet is the store's content-addressed set of lookup tables. A
// *symbolic.Table is immutable, so every table a meter's history takes on —
// pushed live (PushTableSeq, PushTable) or read back by recovery
// (InternTable) — is looked up by its symbolic.MarshalTable bytes, and
// byte-identical tables become one *symbolic.Table, the first one seen or
// decoded, however many meters, epochs or log records carry them. The paper
// ships a table once and amortises it; a fleet whose meters share tables (an
// expert or tariff table, one learned per household type) keeps one decoded
// copy of each, and the fleet fold, which groups edge spans by table
// pointer, folds all of their meters in one run.
//
// Tables differing in any bit — a NaN payload in an empty bin's
// representative included — stay distinct: the key is the bytes, not the
// values. The set indexes a hash of the bytes, not the bytes themselves, so
// a table costs the set a map entry rather than a second copy of its
// contents; a lookup marshals the candidate to compare. A table whose
// hash an interned table with other bytes already holds is not interned: it
// stays a table of its own, which is just as correct and needs no second
// index for a 64-bit collision. Interned tables are never dropped: each is
// in some meter's history, which the store keeps for its lifetime anyway.
//
// The stdlib alternative, unique.Make, interns comparable values only: it
// would intern the key string — a copy of the bytes per table again — and a
// map from handle to table would still be needed beside it
// (BenchmarkInternTable measures both).
type tableSet struct {
	mu     sync.Mutex
	tables map[uint64]*symbolic.Table
	// key and cand are marshalling scratch, reused under mu: a lookup that
	// hits allocates nothing.
	key, cand []byte
}

// tableSeed keys every store's table hash; a hash never leaves the process.
var tableSeed = maphash.MakeSeed()

// table returns the set's table with t's bytes, adding t itself the first
// time those bytes are seen.
func (ts *tableSet) table(t *symbolic.Table) *symbolic.Table {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.key = symbolic.AppendTable(ts.key[:0], t)
	return ts.internLocked(maphash.Bytes(tableSeed, ts.key), ts.key, t)
}

// bytes returns the set's table whose MarshalTable bytes are raw. Only a
// miss decodes raw: every interned table passed the checks UnmarshalTable
// makes, so bytes equal to one are valid. It decodes outside the lock, so
// recovery's shard scans decode their distinct tables in parallel.
func (ts *tableSet) bytes(raw []byte) (*symbolic.Table, error) {
	h := maphash.Bytes(tableSeed, raw)
	ts.mu.Lock()
	c := ts.internLocked(h, raw, nil)
	ts.mu.Unlock()
	if c != nil {
		return c, nil
	}
	t, err := symbolic.UnmarshalTable(raw)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.internLocked(h, raw, t), nil
}

// internLocked returns the interned table with hash h and bytes key, or
// else t, whose bytes key must be, interning it if no table holds h yet.
func (ts *tableSet) internLocked(h uint64, key []byte, t *symbolic.Table) *symbolic.Table {
	c, hit := ts.tables[h]
	if hit {
		ts.cand = symbolic.AppendTable(ts.cand[:0], c)
		if bytes.Equal(ts.cand, key) {
			return c
		}
	}
	if !hit && t != nil {
		if ts.tables == nil {
			ts.tables = make(map[uint64]*symbolic.Table)
		}
		ts.tables[h] = t
	}
	return t
}
