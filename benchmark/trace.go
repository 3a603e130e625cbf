package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of the trace. Every op has a root span around the
// pkg/client call; its children are the same op replayed in-process through
// each layer's exported entry point, laid out back to back from the root's
// start. The children are replays — a second execution of the op — not the
// execution the root timed; a replay that outlasts its parent is clipped to
// it and marked.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Clipped bool   `json:"clipped,omitempty"`
}

// Span names: <layer>.<call>. Root spans are the client layer's.
const (
	spanAppend      = "client.append"
	spanPack        = "symbolic.pack"
	spanDecode      = "transport.decode"
	spanUnpack      = "symbolic.unpack"
	spanEngine      = "storage.append_seq"
	spanStoreAppend = "server.store_append"
	spanAckEncode   = "transport.ack_encode"

	spanQuery    = "client.query." // + kind
	spanReqCodec = "transport.request_codec"
	spanServe    = "query.serve"
	spanQEngine  = "query.engine"
	spanCollect  = "server.collect_range"
	spanKernel   = "symbolic.kernel"
	spanResCodec = "transport.result_codec"
)

// node is a span before it is placed: a duration and the calls inside it.
type node struct {
	name     string
	d        time.Duration
	children []node
}

func ingestTree(t ingestTimes) []node {
	return []node{
		{name: spanPack, d: t.pack},
		{name: spanDecode, d: t.decode, children: []node{{name: spanUnpack, d: t.unpack}}},
		{name: spanEngine, d: t.engineAppend, children: []node{{name: spanStoreAppend, d: t.storeAppend}}},
		{name: spanAckEncode, d: t.ackEncode},
	}
}

func queryTree(t queryTimes) []node {
	return []node{
		{name: spanReqCodec, d: t.reqCodec},
		{name: spanServe, d: t.serve, children: []node{
			{name: spanQEngine, d: t.engine, children: []node{
				{name: spanCollect, d: t.collect},
				{name: spanKernel, d: t.kernel},
			}},
		}},
		{name: spanResCodec, d: t.resCodec},
	}
}

// traceWriter lays ops out as spans.
type traceWriter struct {
	spans  []span
	nextID int
	nextOp int
}

func (w *traceWriter) addOp(root string, start, end int64, children []node) {
	w.nextOp++
	w.nextID++
	id := w.nextID
	w.spans = append(w.spans, span{Op: w.nextOp, ID: id, Name: root, Start: start, End: end})
	w.place(id, start, end, children)
}

// place lays children out back to back inside [start, end).
func (w *traceWriter) place(parent int, start, end int64, children []node) {
	cur := start
	for _, c := range children {
		w.nextID++
		s := span{Op: w.nextOp, ID: w.nextID, Parent: parent, Name: c.name, Start: cur, End: cur + int64(c.d)}
		if s.End > end {
			s.End, s.Clipped = end, true
		}
		w.spans = append(w.spans, s)
		w.place(s.ID, s.Start, s.End, c.children)
		cur = s.End
	}
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

const traceNote = "root spans time the pkg/client call over TCP; child spans are the same op replayed " +
	"in-process through each layer's exported entry point and laid out from the root's start — " +
	"a second execution, not the one the root timed"

func writeTrace(dir, workload string, seed int64, ingest []ingestSample, queries []querySample) (string, error) {
	var w traceWriter
	for _, s := range ingest {
		w.addOp(spanAppend, s.start, s.end, ingestTree(s.t))
	}
	for _, s := range queries {
		w.addOp(spanQuery+kindNames[s.kind], s.start, s.end, queryTree(s.t))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(traceFile{Workload: workload, Seed: seed, Note: traceNote, Spans: w.spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// layerTimes summarises one span name over a traced pass: the median of the
// whole call, and of its self time (the call minus the calls inside it).
type layerTimes struct {
	n          int
	total, own time.Duration
}

// breakdown is a traced pass reduced to medians: the root, every layer
// below it, and the residual — root p50 minus the layers' summed self
// times, the part no exported call accounts for (sockets, syscalls, bufio,
// the session loop, the scheduler).
type breakdown struct {
	n        int
	root     time.Duration
	layers   map[string]layerTimes
	residual time.Duration
}

// newBreakdown folds ops — each a root duration and its replay tree.
func newBreakdown(roots []time.Duration, trees [][]node) breakdown {
	total := map[string][]time.Duration{}
	own := map[string][]time.Duration{}
	var walk func(ns []node)
	walk = func(ns []node) {
		for _, n := range ns {
			self := n.d
			for _, c := range n.children {
				self -= c.d
			}
			total[n.name] = append(total[n.name], n.d)
			own[n.name] = append(own[n.name], max(self, 0))
			walk(n.children)
		}
	}
	for _, t := range trees {
		walk(t)
	}
	b := breakdown{n: len(roots), root: medianDuration(roots), layers: map[string]layerTimes{}}
	b.residual = b.root
	for name, ds := range total {
		lt := layerTimes{n: len(ds), total: medianDuration(ds), own: medianDuration(own[name])}
		b.layers[name] = lt
		b.residual -= lt.own
	}
	return b
}

func ingestBreakdown(samples []ingestSample) breakdown {
	roots := make([]time.Duration, len(samples))
	trees := make([][]node, len(samples))
	for i, s := range samples {
		roots[i] = time.Duration(s.end - s.start)
		trees[i] = ingestTree(s.t)
	}
	return newBreakdown(roots, trees)
}

func queryBreakdown(samples []querySample, kind queryKind) breakdown {
	var roots []time.Duration
	var trees [][]node
	for _, s := range samples {
		if s.kind == kind {
			roots = append(roots, time.Duration(s.end-s.start))
			trees = append(trees, queryTree(s.t))
		}
	}
	return newBreakdown(roots, trees)
}
