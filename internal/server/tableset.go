package server

import (
	"bytes"
	"hash/maphash"
	"sync"

	"symmeter/internal/symbolic"
)

// tableSet is the store's content-addressed set of lookup tables. Every
// table a meter's history takes on — pushed live (PushTableSeq, PushTable)
// or restored by recovery (RestoreMeter) — is looked up by its
// symbolic.MarshalTable bytes, so byte-identical tables become one
// store-owned *symbolic.Table however many meters, epochs or log records
// carry them. The paper ships a table once and amortises it; a fleet whose
// meters share tables (an expert or tariff table, one learned per household
// type) keeps one decoded copy of each, and the fleet fold, which groups
// edge spans by table pointer, folds all of their meters in one run.
//
// Tables differing in any bit — a NaN payload in an empty bin's
// representative included — stay distinct: the key is the bytes, not the
// values. The set indexes a hash of the bytes, not the bytes themselves, so
// a table costs the set a map entry rather than a second copy of its
// contents; a lookup re-marshals the candidate to compare. A table whose
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
	seed   maphash.Seed
	tables map[uint64]*symbolic.Table
	// key and cand are marshalling scratch, reused under mu: a lookup that
	// hits allocates nothing.
	key, cand []byte
}

// intern returns the set's table with t's bytes, adding one the first time
// those bytes are seen: a copy of t, so no later change to the caller's
// object (SetRepresentatives) reaches a stored block's values, or t itself
// when owned — the caller hands t over and keeps no reference to it, as
// recovery does with the tables it decodes, where a copy per distinct table
// measured 5–10 % of a clean Open with one table per meter.
func (ts *tableSet) intern(t *symbolic.Table, owned bool) *symbolic.Table {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.tables == nil {
		ts.seed = maphash.MakeSeed()
		ts.tables = make(map[uint64]*symbolic.Table)
	}
	ts.key = symbolic.AppendTable(ts.key[:0], t)
	h := maphash.Bytes(ts.seed, ts.key)
	c, hit := ts.tables[h]
	if hit {
		ts.cand = symbolic.AppendTable(ts.cand[:0], c)
		if bytes.Equal(ts.cand, ts.key) {
			return c
		}
	}
	c = t
	if !owned {
		var err error
		if c, err = symbolic.UnmarshalTable(ts.key); err != nil {
			// Unreachable: every table passed NewTable's checks, which are
			// all UnmarshalTable repeats. Keeping t itself is still correct.
			c = t
		}
	}
	if !hit {
		ts.tables[h] = c
	}
	return c
}
