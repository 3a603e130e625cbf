// Package metrics is the node's dependency-free telemetry registry: atomic
// counters, gauges, and streaming latency recorders, exposed in the
// Prometheus text exposition format by WritePrometheus (encoder hand-rolled
// in expo.go — no client library).
//
// The design constraint is the ingest hot path: recording a sample must stay
// zero-alloc and lock-free, because every instrumented layer (session batch
// commits, WAL appends, frame decode) sits on paths whose AllocsPerRun pins
// forbid regressions. Counters and gauges are single
// atomic adds. A Latency recorder is a fixed log-bucketed histogram (one
// atomic increment per sample, bucket chosen with bits.Len64) plus three P²
// streaming quantile estimators (internal/stats) guarded by a try-lock: a
// sample that would contend simply skips the estimators — the histogram
// still counts it — so Record never blocks and never allocates.
//
// Collection (WritePrometheus, Value/Quantile accessors) takes locks and may
// allocate; it runs on the scrape path, not the hot path.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"symmeter/internal/stats"
)

// Label is one key="value" pair attached to a series at registration time.
// Series within a family are distinguished by their label sets.
type Label struct {
	Key, Value string
}

// metric kinds, as emitted in # TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindSummary   = "summary"
	kindHistogram = "histogram"
)

// Registry holds an ordered set of metric families. Registration happens at
// startup (it locks and may panic on programmer error: malformed names,
// duplicate series, kind mismatches); recording through the returned handles
// is lock-free; collection walks the families under the registration lock.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// family is one metric name: its help, type, and every labeled series.
type family struct {
	name, help string
	kind       string
	series     []*series
}

// series is one sample stream within a family. Exactly one of the value
// sources is set.
type series struct {
	labels  string // pre-rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	lat     *Latency
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter is a monotonically increasing value. The zero value is usable but
// only registry-created counters are exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter registers (or extends) the counter family name and returns the
// handle for the given label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), counter: c})
	return c
}

// Gauge registers (or extends) the gauge family name and returns the handle
// for the given label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), gauge: g})
	return g
}

// CounterFunc registers a counter series whose value is read from fn at
// collection time — for layers that already maintain their own atomic
// counters (storage fault counters) and only need exposition.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), fn: fn})
}

// GaugeFunc registers a gauge series computed at collection time (health
// state, per-shard in-flight occupancy).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), fn: fn})
}

// register validates and installs one series; all registration funnels here.
func (r *Registry) register(name, help, kind string, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.kind, kind))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName enforces [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels pre-renders a label set to its canonical {k="v",...} form
// (sorted by key, values escaped) so series identity is a string compare and
// the scrape path never re-renders.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Key))
		}
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return out + "}"
}

// escapeLabelValue applies the exposition-format escapes: backslash, double
// quote, newline.
func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// --- Latency ---------------------------------------------------------------

// latency histogram geometry: bucket i counts samples in
// (256ns·2^(i-1), 256ns·2^i]; the final slot is the +Inf overflow. 256ns to
// ~8.6s in 26 doublings covers everything from an in-memory append to a
// wedged fsync.
const (
	latBuckets   = 26
	latFirstNS   = 256
	latFirstBits = 9 // bits.Len64(256) — samples at or under 256ns land in bucket 0
)

// latQuantiles are the P² estimators every Latency carries.
var latQuantiles = [3]float64{0.50, 0.95, 0.99}

// Latency records a stream of durations: a fixed log-bucketed histogram
// (lock-free, zero-alloc — safe on ingest hot paths) plus P² p50/p95/p99
// estimators fed behind a try-lock (a contended sample skips the estimators,
// never blocks). Handles come from Registry.Latency.
type Latency struct {
	buckets [latBuckets + 1]atomic.Int64
	sumNS   atomic.Int64
	count   atomic.Int64

	// p2mu guards the estimators; Record only TryLocks it, the collector
	// Locks. p2seen counts the samples that reached the estimators.
	p2mu   sync.Mutex
	p2     [3]*stats.P2Quantile
	p2seen atomic.Int64
}

// Latency registers a latency family under name (which should end in
// "_seconds"): a summary family `name` with quantile series from the P²
// estimators, and a histogram family derived by inserting "_hist" before the
// unit suffix (e.g. symmeter_ingest_batch_hist_seconds) with the log-bucket
// counts. Latency families do not take caller labels — the quantile/le
// labels own the label space.
func (r *Registry) Latency(name, help string) *Latency {
	l := &Latency{}
	for i, q := range latQuantiles {
		p2, err := stats.NewP2Quantile(q)
		if err != nil {
			panic(err) // unreachable: latQuantiles are all in (0,1)
		}
		l.p2[i] = p2
	}
	r.register(name, help, kindSummary, &series{lat: l})
	r.register(histName(name), help+" (log-bucketed histogram)", kindHistogram, &series{lat: l})
	return l
}

// histName inserts "_hist" before a trailing "_seconds" unit suffix so both
// families keep the unit-last naming convention.
func histName(name string) string {
	const unit = "_seconds"
	if len(name) > len(unit) && name[len(name)-len(unit):] == unit {
		return name[:len(name)-len(unit)] + "_hist" + unit
	}
	return name + "_hist"
}

// bucketOf maps a sample to its histogram slot: 0 for ≤256ns, then one per
// doubling, latBuckets for anything past the largest bound.
func bucketOf(ns int64) int {
	if ns <= latFirstNS {
		return 0
	}
	// bits.Len64(ns-1) is the index of the smallest power-of-two bound ≥ ns.
	b := bits.Len64(uint64(ns-1)) - latFirstBits + 1
	if b > latBuckets {
		return latBuckets
	}
	return b
}

// upperBoundSeconds is bucket i's inclusive upper bound in seconds.
func upperBoundSeconds(i int) float64 {
	return float64(int64(latFirstNS)<<uint(i)) / 1e9
}

// Record adds one duration sample. It is safe for concurrent use, performs
// no allocation, and never blocks: the histogram side is two atomic adds and
// an atomic increment, and the P² side is skipped when contended.
func (l *Latency) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	l.buckets[bucketOf(ns)].Add(1)
	l.sumNS.Add(ns)
	l.count.Add(1)
	if l.p2mu.TryLock() {
		x := float64(ns)
		for _, p2 := range l.p2 {
			p2.Add(x)
		}
		l.p2seen.Add(1)
		l.p2mu.Unlock()
	}
}

// Since records the elapsed time from start — the usual call-site shape
// `defer l.Since(time.Now())` or an explicit pair around a commit.
func (l *Latency) Since(start time.Time) { l.Record(time.Since(start)) }

// Count returns the total number of recorded samples.
func (l *Latency) Count() int64 { return l.count.Load() }

// SumSeconds returns the sum of all recorded samples in seconds.
func (l *Latency) SumSeconds() float64 { return float64(l.sumNS.Load()) / 1e9 }

// Quantile returns the current P² estimate for q, which must be one of the
// registered quantiles (0.5, 0.95, 0.99); it returns 0 before any sample.
// The estimate is in seconds.
func (l *Latency) Quantile(q float64) float64 {
	for i, lq := range latQuantiles {
		if lq == q {
			l.p2mu.Lock()
			v := l.p2[i].Value()
			l.p2mu.Unlock()
			return v / 1e9
		}
	}
	return 0
}
