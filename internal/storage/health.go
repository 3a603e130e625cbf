package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"symmeter/internal/server"
)

// Degraded-mode state machine.
//
// Storage failure is a state, not an exception. The engine classifies every
// durability failure and reacts per class:
//
//	WAL write/fsync failure  → Degraded: the covering log tail is poisoned
//	                           (fsyncgate rule: after a failed fsync the
//	                           kernel may have dropped the dirty pages, so
//	                           retrying the fsync and acking would promise
//	                           durability for bytes that are gone). Ingest
//	                           is refused with server.ErrDegraded; queries
//	                           keep serving sealed + resident data.
//	segment-spill failure    → NOT degraded: the seal falls back to the
//	                           heap-resident payload (the WAL still covers
//	                           every point), spillFallbacks counts it, and
//	                           the probe re-enables spilling when the
//	                           directory recovers.
//	manifest-replace failure → retried with capped backoff inside
//	                           addSegment; only repeated failure degrades
//	                           (the segment stays unmanifested — an orphan
//	                           recovery deletes, with the WAL as cover).
//
// States: Healthy → Degraded → Recovering → Healthy. A background probe
// re-tests the data directory while Degraded; on success the engine rotates
// every shard to a fresh WAL generation (never appending behind a possibly
// torn tail), activates the generation through a manifest write, and only
// then re-admits ingest. A failure during the Recovering rotation drops
// back to Degraded with the new reason.

// HealthState is the engine's coarse condition.
type HealthState int32

const (
	// StateHealthy: full service — durable ingest and queries.
	StateHealthy HealthState = iota
	// StateDegraded: queries only; ingest is refused with a typed error
	// (server.ErrDegraded over the wire as VerdictDegraded). Entered on the
	// first unrecoverable durability failure.
	StateDegraded
	// StateRecovering: a probe succeeded and the engine is rotating to a
	// fresh WAL generation; ingest is still refused until rotation lands.
	StateRecovering
)

func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateRecovering:
		return "recovering"
	}
	return fmt.Sprintf("HealthState(%d)", int32(s))
}

// Health is a point-in-time snapshot of the engine's condition and fault
// counters, for operators (cmd/serve's /healthz and shutdown summary) and
// tests.
type Health struct {
	State  HealthState
	Reason string // first failure that caused the current degradation, "" when healthy

	// SpillDisabled reports that sealed blocks are staying heap-resident
	// because segment writes are failing; ingest still works (WAL covers it).
	SpillDisabled bool

	// Cumulative fault counters since Open.
	WALWriteFailures uint64
	FsyncFailures    uint64
	SpillFallbacks   uint64 // blocks kept on heap instead of spilled
	ManifestRetries  uint64 // manifest writes that needed a retry
	ManifestFailures uint64 // manifest writes that exhausted retries
	Probes           uint64 // background directory probes attempted
	Heals            uint64 // Degraded → Healthy round trips completed
	WALGen           uint64 // current WAL generation (0 = original logs)
}

// refusal is the prebuilt error ingest returns while degraded; one pointer
// load on the hot path, nil when healthy.
type refusal struct {
	err error
}

// healthState carries the state machine. The hot path (AppendSeq/PushTableSeq)
// reads only the refuse pointer; transitions serialize on mu.
type healthState struct {
	refuse atomic.Pointer[refusal]
	state  atomic.Int32

	mu     sync.Mutex
	reason string

	spillDisabled atomic.Bool
	spillReason   atomic.Pointer[string]

	walWriteFailures atomic.Uint64
	fsyncFailures    atomic.Uint64
	spillFallbacks   atomic.Uint64
	manifestRetries  atomic.Uint64
	manifestFailures atomic.Uint64
	probes           atomic.Uint64
	heals            atomic.Uint64
}

// Health returns a snapshot of the engine's state and fault counters.
func (e *Engine) Health() Health {
	h := &e.health
	h.mu.Lock()
	reason := h.reason
	h.mu.Unlock()
	return Health{
		State:            HealthState(h.state.Load()),
		Reason:           reason,
		SpillDisabled:    h.spillDisabled.Load(),
		WALWriteFailures: h.walWriteFailures.Load(),
		FsyncFailures:    h.fsyncFailures.Load(),
		SpillFallbacks:   h.spillFallbacks.Load(),
		ManifestRetries:  h.manifestRetries.Load(),
		ManifestFailures: h.manifestFailures.Load(),
		Probes:           h.probes.Load(),
		Heals:            h.heals.Load(),
		WALGen:           e.walGen.Load(),
	}
}

// degrade moves the engine to Degraded with the given failure class and
// cause. The first degradation's reason sticks until a heal completes; a
// degrade during Recovering overrides the in-flight heal (its final CAS
// fails and the probe starts over).
func (e *Engine) degrade(class string, cause error) {
	h := &e.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if HealthState(h.state.Load()) == StateDegraded {
		return // keep the first reason
	}
	h.reason = fmt.Sprintf("%s: %v", class, cause)
	h.refuse.Store(&refusal{err: fmt.Errorf("%w (%s)", server.ErrDegraded, h.reason)})
	h.state.Store(int32(StateDegraded))
}

// heal attempts the Degraded → Recovering → Healthy transition: rotate
// every shard to a fresh WAL generation (activated by a manifest write) and
// re-admit ingest. Called from the probe loop after a successful directory
// probe. The rotation runs outside h.mu — it takes the manifest lock, and
// failure paths (addSegment degrading) take h.mu under it, so holding h.mu
// here would invert that order.
func (e *Engine) heal() {
	h := &e.health
	h.mu.Lock()
	if HealthState(h.state.Load()) != StateDegraded {
		h.mu.Unlock()
		return
	}
	h.state.Store(int32(StateRecovering))
	h.mu.Unlock()

	err := e.rotateWALs()

	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		// Still broken (or broken again): back to Degraded with the fresh
		// cause, unless something else already degraded us meanwhile.
		if HealthState(h.state.Load()) == StateRecovering {
			h.reason = fmt.Sprintf("wal rotation: %v", err)
			h.refuse.Store(&refusal{err: fmt.Errorf("%w (%s)", server.ErrDegraded, h.reason)})
			h.state.Store(int32(StateDegraded))
		}
		return
	}
	// A concurrent degrade() may have struck between rotation and here; its
	// state write wins and this CAS refuses to mask it.
	if h.state.CompareAndSwap(int32(StateRecovering), int32(StateHealthy)) {
		h.reason = ""
		h.refuse.Store(nil)
		h.spillDisabled.Store(false)
		h.spillReason.Store(nil)
		h.heals.Add(1)
	}
}

// disableSpill parks sealing on the heap after a segment failure. Ingest is
// unaffected — the WAL still covers every acknowledged point — so this does
// NOT degrade; the probe re-enables spilling once the directory recovers.
func (e *Engine) disableSpill(cause error) {
	h := &e.health
	if h.spillDisabled.CompareAndSwap(false, true) {
		s := cause.Error()
		h.spillReason.Store(&s)
	}
}

// probeLoop runs for the engine's lifetime, re-testing the data directory
// on an interval whenever the engine is Degraded (to heal) or spilling is
// disabled (to resume spilling). It is started unconditionally in Open so
// degrade() never races a WaitGroup.Add against Close's Wait.
func (e *Engine) probeLoop(interval time.Duration) {
	defer e.syncWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		}
		h := &e.health
		degraded := HealthState(h.state.Load()) == StateDegraded
		if !degraded && !h.spillDisabled.Load() {
			continue
		}
		h.probes.Add(1)
		if err := e.probeDir(); err != nil {
			continue
		}
		if degraded {
			e.heal() // clears spillDisabled on success too
		} else {
			h.spillDisabled.Store(false)
			h.spillReason.Store(nil)
		}
	}
}

// probeDir exercises the failure surface — create, write, fsync, remove —
// on a scratch file in the data directory. Success means the directory is
// plausibly writable again; the heal's own writes remain the real test.
func (e *Engine) probeDir() error {
	path := filepath.Join(e.opts.Dir, ".probe")
	f, err := e.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("symmeter probe\n")); err != nil {
		f.Close()
		e.fs.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		e.fs.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		e.fs.Remove(path)
		return err
	}
	return e.fs.Remove(path)
}

// rotateWALs opens a fresh log file for every shard at the next WAL
// generation, makes their directory entries durable, activates the
// generation with a manifest write (the barrier: a crash before it leaves
// the new files as deletable orphans, a crash after it replays them), and
// swaps the shard pointers. Old logs are
// retired, not closed — in-flight appends and the group syncer may still
// hold them — and get a best-effort final fsync for whatever they durably
// hold; Close reaps them.
func (e *Engine) rotateWALs() error {
	gen := e.walGen.Load() + 1
	files := make([]File, len(e.wals))
	for i := range files {
		f, err := e.fs.OpenFile(e.walGenPath(i, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			for _, g := range files[:i] {
				g.Close()
			}
			for j := 0; j < i; j++ {
				e.fs.Remove(e.walGenPath(j, gen))
			}
			return err
		}
		files[i] = f
	}

	// Manifest barrier: the generation exists once this lands, and replay
	// will read the new files — whose directory entries must be durable
	// first. Until then they are orphans recovery deletes.
	err := e.fs.SyncDir(filepath.Join(e.opts.Dir, "wal"))
	if err == nil {
		e.manMu.Lock()
		prev := e.man.WALGen
		e.man.WALGen = gen
		if err = writeManifest(e.fs, e.opts.Dir, e.man); err != nil {
			e.man.WALGen = prev
		}
		e.manMu.Unlock()
	}
	if err != nil {
		for i, f := range files {
			f.Close()
			e.fs.Remove(e.walGenPath(i, gen))
		}
		return err
	}
	e.walGen.Store(gen)

	e.retiredMu.Lock()
	for i, f := range files {
		old := e.wals[i].Swap(newWAL(f, 0))
		if old != nil {
			// Whatever the old log durably holds is still its replay
			// prefix; one last best-effort fsync narrows the SyncOff/Group
			// OS-crash window. Errors are expected here — the log lives on
			// the failed device — and change nothing: its records up to any
			// tear replay fine, and new ingest goes to the new generation.
			_ = old.syncTo(old.written.Load())
			e.retired = append(e.retired, old)
		}
	}
	e.retiredMu.Unlock()
	return nil
}
