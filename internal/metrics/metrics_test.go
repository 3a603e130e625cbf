package metrics

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildRegistry assembles one of every series kind, with enough recorded
// state that every output line has a meaningful value.
func buildRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	c := r.Counter("symmeter_test_events_total", "Events seen.")
	c.Add(41)
	c.Inc()
	r.Counter("symmeter_test_frames_total", "Frames by type.",
		Label{Key: "type", Value: "S"}, Label{Key: "dir", Value: "in"})
	r.Counter("symmeter_test_frames_total", "Frames by type.",
		Label{Key: "type", Value: "Q"}, Label{Key: "dir", Value: "in"}).Add(7)
	g := r.Gauge("symmeter_test_active", "Active sessions.")
	g.Add(3)
	g.Add(-1)
	r.GaugeFunc("symmeter_test_budget_bytes", "Configured budget.", func() float64 { return 1 << 20 })
	r.CounterFunc("symmeter_test_heals_total", "Heals.", func() float64 { return 2 })
	lat := r.Latency("symmeter_test_op_seconds", "Op latency.")
	for i := 0; i < 1000; i++ {
		lat.Record(time.Duration(i+1) * time.Microsecond)
	}
	return r
}

// Line grammar of the Prometheus text format 0.0.4, enough to catch a
// malformed hand-rolled encoder: comment lines and sample lines with an
// optional label block and a float value.
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)
)

func TestWritePrometheusGrammar(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	seenSeries := make(map[string]bool)
	typed := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !typeRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
			f := strings.Fields(line)
			if typed[f[2]] != "" {
				t.Errorf("duplicate TYPE for family %s", f[2])
			}
			typed[f[2]] = f[3]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("bad sample line: %q", line)
				continue
			}
			key := m[1] + m[2]
			if seenSeries[key] {
				t.Errorf("duplicate series %q", key)
			}
			seenSeries[key] = true
		}
	}
	// Spot-check the families the registry must expose, with their kinds.
	want := map[string]string{
		"symmeter_test_events_total":    "counter",
		"symmeter_test_frames_total":    "counter",
		"symmeter_test_active":          "gauge",
		"symmeter_test_budget_bytes":    "gauge",
		"symmeter_test_heals_total":     "counter",
		"symmeter_test_op_seconds":      "summary",
		"symmeter_test_op_hist_seconds": "histogram",
	}
	for fam, kind := range want {
		if typed[fam] != kind {
			t.Errorf("family %s: TYPE %q, want %q", fam, typed[fam], kind)
		}
	}
	if !seenSeries[`symmeter_test_frames_total{dir="in",type="Q"}`] {
		t.Errorf("missing labeled series; got: %v", keys(seenSeries))
	}
}

func keys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestHistogramCumulative checks the histogram invariants scrapers rely on:
// bucket counts are non-decreasing in le order, the +Inf bucket equals
// _count, and _count/_sum agree with the recorder's own accessors.
func TestHistogramCumulative(t *testing.T) {
	r := New()
	lat := r.Latency("symmeter_test_op_seconds", "Op latency.")
	const n = 10000
	for i := 0; i < n; i++ {
		lat.Record(time.Duration(i) * 100 * time.Nanosecond)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var prev float64
	var infCount, count float64 = -1, -1
	lastLe := math.Inf(-1)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "symmeter_test_op_hist_seconds_bucket{") {
			le := line[strings.Index(line, `le="`)+4 : strings.Index(line, `"}`)]
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket counts not cumulative: %q after %g", line, prev)
			}
			prev = v
			if le == "+Inf" {
				infCount = v
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le bound %q: %v", le, err)
				}
				if b <= lastLe {
					t.Fatalf("le bounds not increasing: %g after %g", b, lastLe)
				}
				lastLe = b
			}
		}
		if strings.HasPrefix(line, "symmeter_test_op_hist_seconds_count ") {
			count, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		}
	}
	if infCount != float64(n) || count != float64(n) {
		t.Fatalf("le=+Inf bucket %g and _count %g must both equal %d", infCount, count, n)
	}
	if lat.Count() != n {
		t.Fatalf("Count() = %d, want %d", lat.Count(), n)
	}
}

// quantile returns l's current P² estimate for q in seconds, which must be
// one of the registered quantiles (0.5, 0.95, 0.99); it returns 0 for any
// other q and before any sample.
func quantile(l *Latency, q float64) float64 {
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

func TestLatencyQuantiles(t *testing.T) {
	r := New()
	lat := r.Latency("symmeter_test_op_seconds", "Op latency.")
	// A uniform 1..10000µs stream: p50 ≈ 5000µs, p99 ≈ 9900µs.
	for i := 1; i <= 10000; i++ {
		lat.Record(time.Duration(i) * time.Microsecond)
	}
	p50 := quantile(lat, 0.50)
	p99 := quantile(lat, 0.99)
	if p50 < 4e-3 || p50 > 6e-3 {
		t.Errorf("p50 = %gs, want ~5ms", p50)
	}
	if p99 < 9e-3 || p99 > 10.5e-3 {
		t.Errorf("p99 = %gs, want ~9.9ms", p99)
	}
	if got := quantile(lat, 0.42); got != 0 {
		t.Errorf("untracked quantile must read 0, got %g", got)
	}
	wantSum := 0.0
	for i := 1; i <= 10000; i++ {
		wantSum += float64(i) * 1e-6
	}
	if got := lat.SumSeconds(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("SumSeconds = %g, want %g", got, wantSum)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("symmeter_test_weird_total", "Weird labels.",
		Label{Key: "path", Value: "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `symmeter_test_weird_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped sample %q missing from:\n%s", want, buf.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := New()
	mustPanic("bad metric name", func() { r.Counter("0bad", "h") })
	mustPanic("bad label name", func() { r.Counter("symmeter_ok_total", "h", Label{Key: "0bad", Value: "v"}) })
	r.Counter("symmeter_dup_total", "h")
	mustPanic("duplicate series", func() { r.Counter("symmeter_dup_total", "h") })
	mustPanic("kind mismatch", func() { r.Gauge("symmeter_dup_total", "h") })
}

// TestConcurrentRecordCollect hammers every handle kind from parallel
// goroutines while scraping continuously; run under -race this is the proof
// that recording is safe against collection.
func TestConcurrentRecordCollect(t *testing.T) {
	r := New()
	c := r.Counter("symmeter_stress_total", "stress")
	g := r.Gauge("symmeter_stress_active", "stress")
	lat := r.Latency("symmeter_stress_seconds", "stress")
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				lat.Record(time.Duration(w*perW+i) * time.Nanosecond)
				g.Add(-1)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW/10; i++ {
				_ = quantile(lat, 0.95)
				_ = lat.Count()
			}
		}()
	}
	// Let the recorders finish, then stop the scraper (stress goroutines
	// above hold no reference to stop).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The scraper loops until stop; wait for the recording goroutines by
	// polling the counter total.
	deadline := time.After(30 * time.Second)
	for c.Value() != workers*perW {
		select {
		case <-deadline:
			close(stop)
			t.Fatalf("counter stuck at %d", c.Value())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	if got := lat.Count(); got != workers*perW {
		t.Fatalf("latency count %d, want %d", got, workers*perW)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge settled at %d, want 0", got)
	}
}

// TestRecordingAllocs pins the hot-path recording calls at zero allocations
// — the contract that lets session loops, WAL appends and frame decode carry
// these calls without breaking their own AllocsPerRun pins. The P²
// estimators' bootstrap (first five samples) is warmed first; it must not
// allocate either, but warming keeps the pin about steady state.
func TestRecordingAllocs(t *testing.T) {
	r := New()
	c := r.Counter("symmeter_allocs_total", "allocs")
	g := r.Gauge("symmeter_allocs_active", "allocs")
	lat := r.Latency("symmeter_allocs_seconds", "allocs")
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(7) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op", n)
	}
	d := 512 * time.Microsecond
	if n := testing.AllocsPerRun(1000, func() { lat.Record(d) }); n != 0 {
		t.Errorf("Latency.Record allocates %v/op", n)
	}
	// The very first records (P² bootstrap) must be clean too.
	fresh := New().Latency("symmeter_allocs_fresh_seconds", "allocs")
	if n := testing.AllocsPerRun(1, func() {
		for i := 1; i <= 8; i++ {
			fresh.Record(time.Duration(i) * time.Millisecond)
		}
	}); n != 0 {
		t.Errorf("Latency.Record bootstrap allocates %v/run", n)
	}
}

func TestHandler(t *testing.T) {
	r := buildRegistry(t)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "symmeter_test_events_total 42") {
		t.Fatalf("counter sample missing from body:\n%s", buf.String())
	}
}

func TestGaugeFuncLive(t *testing.T) {
	r := New()
	v := 5.0
	r.GaugeFunc("symmeter_live", "live", func() float64 { return v })
	read := func() string {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if !strings.Contains(read(), "symmeter_live 5") {
		t.Fatalf("first read: %s", read())
	}
	v = 9
	if !strings.Contains(read(), "symmeter_live 9") {
		t.Fatalf("gauge func must re-evaluate per scrape: %s", read())
	}
}

func ExampleRegistry_WritePrometheus() {
	r := New()
	r.Counter("symmeter_example_total", "Example events.").Add(3)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP symmeter_example_total Example events.
	// # TYPE symmeter_example_total counter
	// symmeter_example_total 3
}
