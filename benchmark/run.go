package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic shape. Every workload runs the same three things —
// recovery drills on a preloaded directory, sequenced ingest over TCP, the
// dashboard query mix over TCP — so every end-to-end metric exists on each;
// they differ in what the timed seconds are spent on and in how the layers
// are used (README.md has the table).
type workload struct {
	name  string
	why   string
	fsync string
	// meters × preloadDays is committed in-process during set-up.
	meters      int
	preloadDays int
	shape       shape
}

type shape int

const (
	// ingestThenQuery spends 60 % of the seconds on ingest from every
	// caller, then 40 % on the query mix over each meter's recent days.
	ingestThenQuery shape = iota
	// queryThenIngest spends 60 % on the query mix over the whole
	// recovered history, then 40 % on ingest.
	queryThenIngest
	// concurrent runs one ingest caller beside one query caller for all of
	// the seconds.
	concurrent
)

const shards = 16

var workloads = []workload{
	{
		name:  "ingest_group",
		why:   "default fsync=group: the ack waits on CPU layers and the socket, not the disk, so CPU-path gains show here",
		fsync: "group", meters: 256, preloadDays: 32, shape: ingestThenQuery,
	},
	{
		name:  "ingest_always",
		why:   "same traffic, fsync=always: the ack waits on the WAL fsync, so CPU-path gains should not move it and commit batching should",
		fsync: "always", meters: 256, preloadDays: 32, shape: ingestThenQuery,
	},
	{
		name:  "restart_query",
		why:   "large preloaded store, recovered then read-only: WAL replay, footer restore, mmap reads, query engine and kernels; ingest layers nearly idle",
		fsync: "group", meters: 1024, preloadDays: 120, shape: queryThenIngest,
	},
	{
		name:  "mixed",
		why:   "one ingest caller beside one query caller on recent days: the only workload where writers and readers share shard locks and cores",
		fsync: "group", meters: 256, preloadDays: 32, shape: concurrent,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is how much of everything but the timed seconds a run does.
type scale struct {
	houses    int // households in the dataset
	liveDays  int // encoded days per household, after the 2 training days
	setupReps int // set-ups per run; setup_s is their median
	cycles    int // crash recoveries and clean recoveries, each
	warmOps   int // warm-up ops per caller and kind
	traceOps  int // traced ops per caller and kind
}

var (
	fullScale  = scale{houses: 8, liveDays: 14, setupReps: 5, cycles: 15, warmOps: 1000, traceOps: 5000}
	quickScale = scale{houses: 2, liveDays: 4, setupReps: 1, cycles: 2, warmOps: 50, traceOps: 200}
)

type runConfig struct {
	wl       workload
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	dataRoot string
	outDir   string
	log      io.Writer
}

// envInfo is where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	KernelPath string `json:"kernel_path"`
	Callers    int    `json:"callers"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Reasons   []string           `json:"reasons,omitempty"`
	OpsHash   string             `json:"ops_hash"`
	Env       envInfo            `json:"env"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// run holds one run's state.
type run struct {
	cfg   runConfig
	wl    workload
	sc    scale
	res   *runResult
	fail  failures
	in    *inputs
	st    *stack
	fleet *fleet

	ingesters []*ingestCaller
	queriers  []*queryCaller
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, format+"\n", args...)
}

func (r *run) set(name string, v float64, samples int) {
	r.res.Metrics[name] = v
	r.res.Samples[name] = samples
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload runs cfg.wl once and returns everything it measured. An error
// means the run could not be carried out; wrong outputs are not errors, they
// are counted in the result.
func runWorkload(cfg runConfig) (*runResult, error) {
	r := &run{cfg: cfg, wl: cfg.wl, sc: fullScale}
	if cfg.quick {
		r.sc = quickScale
		r.wl.meters, r.wl.preloadDays = 16, recentDays+1
	}
	callers := min(2, runtime.NumCPU())
	if r.wl.shape == concurrent {
		callers = 2 // one ingest, one query
	}
	r.res = &runResult{
		Workload: r.wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: envInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			KernelPath: kernelPath(), Callers: callers,
		},
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.dataRoot, r.wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	// Whatever a failed step leaves open is released before the directory goes.
	defer func() {
		for _, q := range r.queriers {
			q.conn.close()
		}
		if r.st != nil {
			r.st.stopServing()
			r.st.abandon()
		}
	}()

	if err := r.setUp(runDir); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := r.recoveryDrills(); err != nil {
		return nil, fmt.Errorf("recovery drills: %w", err)
	}
	if err := r.serveAndWarmUp(callers); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := r.timedPhases(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.tracedPass(runDir); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	if err := r.oracle(); err != nil {
		return nil, fmt.Errorf("output oracle: %w", err)
	}
	if err := r.registryMetrics(); err != nil {
		return nil, err
	}
	if err := r.st.stopServing(); err != nil {
		r.fail.add("service close: %v", err)
	}
	r.res.Attempted++
	if err := r.st.close(); err != nil {
		r.fail.add("engine close: %v", err)
	}
	r.st = nil

	r.res.Failed = r.fail.n
	r.res.Reasons = r.fail.reasons
	r.res.Correct = r.fail.n == 0
	return r.res, nil
}

// setUp produces the inputs once, then builds a preloaded engine several
// times over and keeps the last. setup_s is what the system's own code costs
// before it can take traffic — learning the tables and encoding the days
// (once), the median Open + preload, and later the listener and warm-up; the
// synthetic raw series are the benchmark's cost and are left out. Preloading
// is a bulk load, so it runs under fsync=group whatever the workload's mode;
// the drills reopen the directory in that mode.
func (r *run) setUp(runDir string) error {
	in, err := genInputs(r.cfg.seed, r.wl.meters, r.sc)
	if err != nil {
		return err
	}
	r.in = in
	var took []time.Duration
	for rep := 0; rep < r.sc.setupReps; rep++ {
		if r.st != nil {
			r.st.abandon()
			if err := os.RemoveAll(r.st.dir); err != nil {
				return err
			}
		}
		start := time.Now()
		r.st, err = openStack(filepath.Join(runDir, fmt.Sprintf("data%d", rep)), shards, "group")
		if err != nil {
			return err
		}
		if err := r.st.preload(in, r.wl.preloadDays); err != nil {
			return err
		}
		took = append(took, time.Since(start))
	}
	r.fleet = newFleet(in, r.wl.preloadDays)
	r.res.OpsHash = fmt.Sprintf("%016x", in.opsHash(r.res.Env.Callers))

	s := in.sensor
	var learn time.Duration
	for _, d := range s.learn {
		learn += d
	}
	build := medianDuration(took)
	r.set("setup_s", (learn + s.encode + build).Seconds(), len(took))
	r.set("storage.preload_batches_per_s", float64(r.wl.meters*r.wl.preloadDays)/build.Seconds(), len(took))
	r.set("symbolic.encode_points_per_s", float64(s.rawPoints)/s.encode.Seconds(), s.rawPoints)
	r.set("symbolic.learn_ms", ms(medianDuration(s.learn)), len(s.learn))
	r.set("symbolic.mae_w", s.absErrSum/float64(s.windows), s.windows)
	r.logf("  inputs: %d raw points generated in %.2fs (not part of setup_s)", s.rawPoints, s.generate.Seconds())
	return nil
}

func (r *run) preloaded() int64 {
	return int64(r.wl.meters) * int64(r.wl.preloadDays) * int64(r.in.perDay)
}

// recoveryDrills times Open on a crash-shaped directory (Abandon: unfinished
// segments, everything replays from the WAL) and on a cleanly closed one
// (footers restore the sealed chains), checking after each that nothing was
// lost. It leaves the cleanly recovered engine open.
func (r *run) recoveryDrills() error {
	dir := r.st.dir
	reopen := func() (time.Duration, error) {
		// Collect the previous engine first, so every Open starts from the
		// same heap instead of paying for its predecessor's garbage.
		runtime.GC()
		start := time.Now()
		st, err := openStack(dir, shards, r.wl.fsync)
		took := time.Since(start)
		if err != nil {
			r.st = nil
			return 0, err
		}
		r.st = st
		r.res.Attempted++
		if got := st.totalSymbols(); got != r.preloaded() {
			r.fail.add("recovery: %d symbols in the store, %d preloaded", got, r.preloaded())
		}
		return took, nil
	}
	var crash, clean []time.Duration
	var replayRate, restoreRate []float64
	for i := 0; i < r.sc.cycles; i++ {
		r.st.abandon()
		took, err := reopen()
		if err != nil {
			return err
		}
		crash = append(crash, took)
		replayRate = append(replayRate, float64(r.st.recovery().replayedPoints)/took.Seconds())
	}
	var flush time.Duration
	for i := 0; i < r.sc.cycles; i++ {
		start := time.Now()
		err := r.st.close()
		if i == 0 {
			flush = time.Since(start) // the Close that finishes the segments
		}
		if err != nil {
			return err
		}
		took, err := reopen()
		if err != nil {
			return err
		}
		clean = append(clean, took)
		restoreRate = append(restoreRate, float64(r.st.recovery().segmentPoints)/took.Seconds())
	}
	r.set("recover_crash_ms", ms(medianDuration(crash)), len(crash))
	r.set("recover_clean_ms", ms(medianDuration(clean)), len(clean))
	r.set("storage.replay_symbols_per_s", medianFloat(replayRate), len(replayRate))
	r.set("storage.restore_symbols_per_s", medianFloat(restoreRate), len(restoreRate))
	r.set("storage.flush_ms", ms(flush), 1)

	walBytes, segBytes, err := r.st.diskUsage()
	if err != nil {
		return err
	}
	n := float64(r.preloaded())
	r.set("disk_bytes_per_symbol", float64(walBytes+segBytes)/n, 1)
	r.set("storage.wal_bytes_per_symbol", float64(walBytes)/n, 1)
	r.set("storage.segment_bytes_per_symbol", float64(segBytes)/n, 1)
	resident, points := r.st.memoryFootprint()
	r.set("resident_bytes_per_symbol", float64(resident)/float64(points), 1)
	return nil
}

// serveAndWarmUp starts the listener, connects the callers and runs a fixed
// number of warm-up ops through each. Its time is part of setup_s: work a
// change moves out of the timed phase into start-up or first use shows there.
func (r *run) serveAndWarmUp(callers int) error {
	start := time.Now()
	if err := r.st.serve(); err != nil {
		return err
	}
	nIngest, nQuery := callers, callers
	if r.wl.shape == concurrent {
		nIngest, nQuery = 1, 1
	}
	for c := 0; c < nIngest; c++ {
		ic := &ingestCaller{f: r.fleet, addr: r.st.addr}
		for m := c; m < r.wl.meters; m += nIngest {
			ic.share = append(ic.share, m)
		}
		r.ingesters = append(r.ingesters, ic)
	}
	for c := 0; c < nQuery; c++ {
		conn, err := dialQuery(r.st.addr)
		if err != nil {
			return err
		}
		r.queriers = append(r.queriers, &queryCaller{
			f: r.fleet, gen: newQueryGen(r.cfg.seed, c, r.wl.meters), conn: conn,
			recent: r.wl.shape != queryThenIngest,
		})
	}
	warm := limit{maxOps: r.sc.warmOps}
	var ing ingestOut
	var qry queryOut
	if r.wl.shape == concurrent {
		ing, qry = r.phase(r.ingesters, r.queriers, time.Minute, warm)
	} else {
		ing, _ = r.phase(r.ingesters, nil, time.Minute, warm)
		_, qry = r.phase(nil, r.queriers, time.Minute, warm)
	}
	r.account(&ing, &qry)
	took := time.Since(start)
	r.set("client.warmup_ms", ms(took), int(ing.batches)+qry.total())
	r.set("setup_s", r.res.Metrics["setup_s"]+took.Seconds(), r.res.Samples["setup_s"])
	return nil
}

// phase runs the given callers side by side until dur has passed (or each
// has done lim.maxOps ops) and merges what they saw.
func (r *run) phase(ingesters []*ingestCaller, qs []*queryCaller, dur time.Duration, lim limit) (ingestOut, queryOut) {
	epoch := time.Now()
	lim.deadline = epoch.Add(dur)
	iouts := make([]ingestOut, len(ingesters))
	qouts := make([]queryOut, len(qs))
	var wg sync.WaitGroup
	for i, c := range ingesters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iouts[i] = c.run(epoch, lim)
		}()
	}
	for i, c := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qouts[i] = c.run(epoch, lim)
		}()
	}
	wg.Wait()
	var ing ingestOut
	var qry queryOut
	for i := range iouts {
		ing.merge(&iouts[i])
	}
	for i := range qouts {
		qry.merge(&qouts[i])
	}
	return ing, qry
}

// account adds a phase's ops and failures to the run's totals.
func (r *run) account(ing *ingestOut, qry *queryOut) {
	r.res.Attempted += ing.batches + ing.sessions + int64(qry.total())
	r.fail.merge(ing.fail)
	r.fail.merge(qry.fail)
}

// processUsage is the whole process's resource use so far.
type processUsage struct {
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	maxRSSKB int64
}

func readUsage() processUsage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return processUsage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  mem.Mallocs,
		gcPause:  time.Duration(mem.PauseTotalNs),
		maxRSSKB: ru.Maxrss,
	}
}

// timedPhases is the measured part of the run, tracing off.
func (r *run) timedPhases() error {
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	long, short := total*6/10, total*4/10
	before := readUsage()
	queryLocksBefore := r.st.queryLocks()
	// ingestPhase runs the ingest callers (beside qs, if any) and notes what
	// the server read off their connections meanwhile.
	var wire int64
	ingestPhase := func(qs []*queryCaller, dur time.Duration) (ingestOut, queryOut, error) {
		bytesBefore, err := r.st.ingestBytesIn()
		if err != nil {
			return ingestOut{}, queryOut{}, err
		}
		ing, qry := r.phase(r.ingesters, qs, dur, limit{})
		bytesAfter, err := r.st.ingestBytesIn()
		wire = bytesAfter - bytesBefore
		return ing, qry, err
	}
	var ing ingestOut
	var qry queryOut
	var err error
	switch r.wl.shape {
	case ingestThenQuery:
		ing, _, err = ingestPhase(nil, long)
		_, qry = r.phase(nil, r.queriers, short, limit{})
	case queryThenIngest:
		_, qry = r.phase(nil, r.queriers, long, limit{})
		ing, _, err = ingestPhase(nil, short)
	case concurrent:
		ing, qry, err = ingestPhase(r.queriers, total)
	}
	if err != nil {
		return err
	}
	after := readUsage()
	r.account(&ing, &qry)

	acked := int(ing.batches - ing.fail.n)
	r.set("acked_batches_per_s", ing.acks.rate(ing.elapsed), acked)
	r.set("ack_p50_us", us(ing.acks.p50()), ing.acks.n())
	r.set("wire_bytes_per_symbol", float64(wire)/float64(acked*r.in.perDay), acked*r.in.perDay)
	r.set("queries_per_s", qry.all().rate(qry.elapsed), qry.total())
	r.set("window_p50_us", us(qry.lat[kindWindow].p50()), qry.lat[kindWindow].n())
	r.set("fleet_p50_us", us(qry.lat[kindFleet].p50()), qry.lat[kindFleet].n())

	p99, windows := ing.acks.p99Windowed()
	r.set("client.ack_p99w_us", us(p99), windows)
	p99, windows = qry.all().p99Windowed()
	r.set("client.query_p99w_us", us(p99), windows)
	r.set("client.ack_max_ms", ms(ing.acks.max()), ing.acks.n())
	r.set("client.hist_p50_us", us(qry.lat[kindHist].p50()), qry.lat[kindHist].n())
	r.set("client.fleethist_p50_us", us(qry.lat[kindFleetHist].p50()), qry.lat[kindFleetHist].n())
	r.set("client.session_open_p50_us", us(ing.opens.p50()), ing.opens.n())
	r.set("client.retries", float64(ing.retries), int(ing.sessions))
	r.set("server.tail_locks_per_query", float64(r.st.queryLocks()-queryLocksBefore)/float64(max(qry.total(), 1)), qry.total())

	ops := acked + qry.total()
	r.set("process.cpu_us_per_op", us(after.cpu-before.cpu)/float64(max(ops, 1)), ops)
	r.set("process.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(max(ops, 1)), ops)
	r.set("process.gc_pause_ms", ms(after.gcPause-before.gcPause), ops)
	r.set("process.peak_rss_mb", float64(after.maxRSSKB)/1024, 1)

	r.logf("  timed: %d batches acked in %.2fs by %d ingest callers, %d queries in %.2fs by %d query callers",
		acked, ing.elapsed.Seconds(), len(r.ingesters), qry.total(), qry.elapsed.Seconds(), len(r.queriers))
	return nil
}

// tracedPass runs further ops with tracing on: each op over the wire as
// before (the root span), then the same op replayed in-process through each
// layer (the child spans). It writes the trace file and the per-layer
// breakdown.
func (r *run) tracedPass(runDir string) error {
	rp, err := newIngestReplayer(filepath.Join(runDir, "shadow"), shards, r.wl.fsync, r.in)
	if err != nil {
		return err
	}
	defer rp.close()
	for _, c := range r.ingesters {
		c.replay = rp.newReplay()
	}
	for _, c := range r.queriers {
		c.replay = r.st.newQueryReplay()
		c.verify = r.wl.shape != concurrent
	}
	defer func() {
		for _, c := range r.ingesters {
			c.replay = nil
		}
		for _, c := range r.queriers {
			c.replay, c.verify = nil, false
		}
	}()

	total := time.Duration(r.cfg.seconds * float64(time.Second) * 3 / 10)
	lim := limit{maxOps: r.sc.traceOps}
	var ing ingestOut
	var qry queryOut
	if r.wl.shape == concurrent {
		ing, qry = r.phase(r.ingesters, r.queriers, total, lim)
	} else {
		ing, _ = r.phase(r.ingesters, nil, total/2, lim)
		_, qry = r.phase(nil, r.queriers, total/2, lim)
		// The two phases each started their clock at zero; put the queries
		// after the batches on the trace's timeline.
		for i := range qry.traced {
			qry.traced[i].start += int64(ing.elapsed)
			qry.traced[i].end += int64(ing.elapsed)
		}
	}
	r.account(&ing, &qry)
	if len(ing.traced) == 0 || len(qry.traced) == 0 {
		return errors.New("no traced ops completed")
	}

	path, err := writeTrace(r.cfg.outDir, r.wl.name, r.cfg.seed, ing.traced, qry.traced)
	if err != nil {
		return err
	}
	r.res.TraceFile = path

	ib := ingestBreakdown(ing.traced)
	wb := queryBreakdown(qry.traced, kindWindow)
	hb := queryBreakdown(qry.traced, kindHist)
	fb := queryBreakdown(qry.traced, kindFleet)
	fhb := queryBreakdown(qry.traced, kindFleetHist)
	ns := func(d time.Duration) float64 { return float64(d) }

	r.set("client.ack_residual_us", us(ib.residual), ib.n)
	r.set("client.query_residual_us", us(wb.residual), wb.n)
	r.set("client.trace_overhead_pct", overheadPct(us(ib.root), r.res.Metrics["ack_p50_us"]), ib.n)
	r.set("client.query_trace_overhead_pct", overheadPct(us(wb.root), r.res.Metrics["window_p50_us"]), wb.n)
	r.set("transport.decode_batch_ns", ns(ib.layers[spanDecode].total), ib.n)
	r.set("transport.ack_encode_ns", ns(ib.layers[spanAckEncode].total), ib.n)
	r.set("transport.query_codec_ns", ns(wb.layers[spanReqCodec].total+wb.layers[spanResCodec].total), wb.n)
	r.set("server.store_append_ns", ns(ib.layers[spanStoreAppend].total), ib.n)
	r.set("server.collect_range_ns", ns(wb.layers[spanCollect].total), wb.n)
	r.set("storage.append_seq_us", us(ib.layers[spanEngine].total), ib.n)
	r.set("storage.wal_self_us", us(ib.layers[spanEngine].own), ib.n)
	r.set("query.window_ns", ns(wb.layers[spanQEngine].total), wb.n)
	r.set("query.hist_ns", ns(hb.layers[spanQEngine].total), hb.n)
	r.set("query.fleet_us", us(fb.layers[spanQEngine].total), fb.n)
	r.set("query.fleethist_us", us(fhb.layers[spanQEngine].total), fhb.n)
	r.set("query.serve_self_ns", ns(wb.layers[spanServe].own), wb.n)
	r.set("query.wire_over_inproc_window", r.res.Metrics["window_p50_us"]*1e3/max(ns(wb.layers[spanQEngine].total), 1), wb.n)
	r.set("symbolic.pack_ns_per_batch", ns(ib.layers[spanPack].total), ib.n)
	r.set("symbolic.unpack_ns_per_batch", ns(ib.layers[spanUnpack].total), ib.n)
	r.set("symbolic.kernel_agg_ns", ns(wb.layers[spanKernel].total), wb.n)
	r.set("symbolic.kernel_hist_ns", ns(hb.layers[spanKernel].total), hb.n)

	r.logf("  traced: %d batches, %d queries → %s", len(ing.traced), len(qry.traced), path)
	r.logBreakdown("client.append", ib)
	r.logBreakdown("client.query.window", wb)
	return nil
}

func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// logBreakdown prints where a traced root's median went: each layer's self
// time and the residual, which by construction sum to the root.
func (r *run) logBreakdown(root string, b breakdown) {
	r.logf("  %s p50 %.2f us over %d traced ops = layer self times + residual (children are replays):", root, us(b.root), b.n)
	names := make([]string, 0, len(b.layers))
	for name := range b.layers {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		l := b.layers[name]
		r.logf("    %-24s self %9.3f us  (call %9.3f us, n=%d)", name, us(l.own), us(l.total), l.n)
	}
	r.logf("    %-24s      %9.3f us  (%.0f %% of the root)", "residual", us(b.residual), 100*float64(b.residual)/float64(max(b.root, 1)))
}

// oracle checks, for every meter, that what the server answers over the
// wire is what was generated and acknowledged: the count three ways, the
// aggregate bit-equal to the in-process engine's, the histogram against the
// generated symbols, and the committed sequence number.
func (r *run) oracle() error {
	conn, err := dialQuery(r.st.addr)
	if err != nil {
		return err
	}
	defer conn.close()
	const all = math.MaxInt64
	var want int64
	for m := 0; m < r.wl.meters; m++ {
		id := uint64(m)
		days := int(r.fleet.head[m].Load())
		symbols := uint64(days * r.in.perDay)
		want += int64(symbols)
		r.res.Attempted += 4

		wire, err := conn.count(id, 0, all)
		inproc, _ := r.st.inprocCount(id, 0, all)
		if err != nil || wire != symbols || inproc != symbols {
			r.fail.add("meter %d: count over the wire %d (%v), in-process %d, generated %d", m, wire, err, inproc, symbols)
		}
		wagg, err := conn.window(id, 0, all)
		if iagg, _ := r.st.inprocWindow(id, 0, all); err != nil || wagg != iagg {
			r.fail.add("meter %d: aggregate over the wire %+v (%v), in-process %+v", m, wagg, err, iagg)
		}
		hist, err := conn.hist(id, 0, all)
		if err != nil || !slices.Equal(hist, r.in.histogram(m, days)) {
			r.fail.add("meter %d: histogram over the wire %v (%v), generated %v", m, hist, err, r.in.histogram(m, days))
		}
		// seq 1 was the table, every day after it one batch.
		if seq := r.st.lastSeq(id); seq != uint64(days)+1 {
			r.fail.add("meter %d: last committed seq %d, %d batches acked", m, seq, days)
		}
	}
	r.res.Attempted++
	if got := r.st.totalSymbols(); got != want {
		r.fail.add("store holds %d symbols, %d generated and acked", got, want)
	}
	return nil
}

// registryMetrics reads the per-layer numbers the stack's own telemetry
// already records, from the same exposition an operator would scrape.
func (r *run) registryMetrics() error {
	series, err := r.st.scrape()
	if err != nil {
		return err
	}
	var frames, bytes float64
	for name, v := range series {
		if !strings.Contains(name, labelDirIn) {
			continue
		}
		if strings.HasPrefix(name, prefixFramesIn) {
			frames += v
		} else if strings.HasPrefix(name, prefixFrameBytes) {
			bytes += v
		}
	}
	c := r.st.counters()
	batches := int(c.symbols) / r.in.perDay
	fsyncs := series[seriesFsyncCount]
	r.set("transport.frames_in", frames, 1)
	r.set("transport.bytes_in", bytes, 1)
	r.set("server.batch_commit_p50_us", series[seriesBatchP50]*1e6, batches)
	r.set("server.query_exec_p50_us", series[seriesQueryP50]*1e6, int(series[seriesQueryCount]))
	r.set("server.duplicates", float64(c.duplicates), 1)
	r.set("server.refusals", float64(c.refusals), 1)
	r.set("storage.wal_append_p50_us", series[seriesWALP50]*1e6, int(series[seriesWALCount]))
	r.set("storage.fsync_p50_us", series[seriesFsyncP50]*1e6, int(fsyncs))
	r.set("storage.fsyncs", fsyncs, 1)
	r.set("storage.batches_per_fsync", float64(batches)/max(fsyncs, 1), batches)
	r.set("storage.faults", float64(r.st.faults()), 1)
	return nil
}
