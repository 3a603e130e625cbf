package transport

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"symmeter/internal/metrics"
)

// TestFrameMetricsCounts checks the per-type routing: tracked frame types
// land on their own series, unknown bytes land on the "other" slot, and the
// byte counter includes the 5-byte header.
func TestFrameMetricsCounts(t *testing.T) {
	reg := metrics.New()
	fm := NewFrameMetrics(reg, "in")
	fm.Observe(FrameSeqSymbol, 100)
	fm.Observe(FrameSeqSymbol, 50)
	fm.Observe(FrameQuery, 0)
	fm.Observe('z', 10) // untracked
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`symmeter_transport_frames_total{dir="in",type="D"} 2`,
		`symmeter_transport_frame_bytes_total{dir="in",type="D"} 160`,
		`symmeter_transport_frames_total{dir="in",type="Q"} 1`,
		`symmeter_transport_frame_bytes_total{dir="in",type="Q"} 5`,
		`symmeter_transport_frames_total{dir="in",type="other"} 1`,
		`symmeter_transport_frame_bytes_total{dir="in",type="other"} 15`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestFrameMetricsNilSafe: a reader without an observer costs one branch.
func TestFrameMetricsNilSafe(t *testing.T) {
	var fm *FrameMetrics
	fm.Observe(FrameSeqSymbol, 100) // must not panic
}

// TestFrameReaderObserves wires a FrameMetrics into a FrameReader and checks
// every decoded frame is counted once with its on-wire size.
func TestFrameReaderObserves(t *testing.T) {
	table := testTable(t)
	data := buildSymbolStream(t, table, 3, 8)
	reg := metrics.New()
	fm := NewFrameMetrics(reg, "in")
	dec := NewDecoder(bytes.NewReader(data))
	dec.SetFrameMetrics(fm)
	frames := 0
	for {
		_, err := dec.Next()
		if err != nil {
			break
		}
		frames++
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `symmeter_transport_frames_total{dir="in",type="D"} 3`) {
		t.Errorf("3 symbol frames decoded, counter disagrees:\n%s", out)
	}
	if !strings.Contains(out, `symmeter_transport_frames_total{dir="in",type="U"} 1`) {
		t.Errorf("table frame not counted:\n%s", out)
	}
	// Total observed bytes across types must equal the stream length (every
	// frame was decoded; the 'E' terminator is part of the stream too).
	var total int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "symmeter_transport_frame_bytes_total{") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("unparseable %q: %v", line, err)
			}
			total += v
		}
	}
	if total != int64(len(data)) {
		t.Errorf("observed %d wire bytes, stream is %d", total, len(data))
	}
}

// TestFrameMetricsObserveZeroAlloc pins Observe at zero allocations — it
// sits inside FrameReader.Next, whose steady state is itself pinned.
func TestFrameMetricsObserveZeroAlloc(t *testing.T) {
	fm := NewFrameMetrics(metrics.New(), "in")
	if n := testing.AllocsPerRun(1000, func() {
		fm.Observe(FrameSeqSymbol, 128)
		fm.Observe('z', 16)
	}); n != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", n)
	}
}

// TestInstrumentedDecoderZeroAlloc re-runs the decoder steady-state pin with
// a frame observer installed: instrumentation must not cost an allocation.
func TestInstrumentedDecoderZeroAlloc(t *testing.T) {
	table := testTable(t)
	data := buildSymbolStream(t, table, 300, 96)
	dec := NewDecoder(bytes.NewReader(data))
	dec.SetFrameMetrics(NewFrameMetrics(metrics.New(), "in"))
	for i := 0; i < 4; i++ {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type != FrameSeqSymbol || len(ev.Points) == 0 {
			t.Fatalf("unexpected event %c with %d points", ev.Type, len(ev.Points))
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented Decoder.Next allocates %.1f times per run, want 0", allocs)
	}
}
