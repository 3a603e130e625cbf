package transport

import (
	"symmeter/internal/metrics"
)

// trackedFrames is the protocol alphabet FrameMetrics breaks out per type;
// anything else (garbage, future revisions) lands in the "other" slot so the
// totals still add up.
var trackedFrames = []byte{
	FrameHandshake, FrameEnd, FrameSeqTable, FrameSeqSymbol, FrameAck,
	FrameQuery, FrameResult, FrameQueryError,
}

// FrameMetrics counts frames and on-wire bytes by frame type for one
// direction (in or out). Observe is two atomic adds through a fixed lookup
// table — zero-alloc and lock-free, safe inside the decode loop whose
// steady state is pinned allocation-free.
type FrameMetrics struct {
	frames [256]*metrics.Counter
	bytes  [256]*metrics.Counter
	other  [2]*metrics.Counter // frames, bytes for untracked types
}

// NewFrameMetrics registers the per-type frame/byte counter families for one
// direction ("in" for client→server, "out" for server→client) and returns
// the recording handle.
func NewFrameMetrics(reg *metrics.Registry, direction string) *FrameMetrics {
	fm := &FrameMetrics{}
	for _, typ := range trackedFrames {
		lbls := []metrics.Label{
			{Key: "type", Value: string(typ)},
			{Key: "dir", Value: direction},
		}
		fm.frames[typ] = reg.Counter("symmeter_transport_frames_total",
			"Protocol frames by frame type and direction.", lbls...)
		fm.bytes[typ] = reg.Counter("symmeter_transport_frame_bytes_total",
			"On-wire frame bytes (header + payload) by frame type and direction.", lbls...)
	}
	olbls := []metrics.Label{
		{Key: "type", Value: "other"},
		{Key: "dir", Value: direction},
	}
	fm.other[0] = reg.Counter("symmeter_transport_frames_total",
		"Protocol frames by frame type and direction.", olbls...)
	fm.other[1] = reg.Counter("symmeter_transport_frame_bytes_total",
		"On-wire frame bytes (header + payload) by frame type and direction.", olbls...)
	return fm
}

// Observe counts one frame of the given type whose payload is payloadLen
// bytes (the 5-byte header is added here). Nil receivers are no-ops so
// uninstrumented readers cost a single branch.
func (fm *FrameMetrics) Observe(typ byte, payloadLen int) {
	if fm == nil {
		return
	}
	fc, bc := fm.frames[typ], fm.bytes[typ]
	if fc == nil {
		fc, bc = fm.other[0], fm.other[1]
	}
	fc.Inc()
	bc.Add(int64(payloadLen) + 5)
}

// SetMetrics installs a per-type frame observer on the reader; every
// successfully decoded frame is counted. Nil disables.
func (fr *FrameReader) SetMetrics(fm *FrameMetrics) { fr.fm = fm }

// SetFrameMetrics installs a per-type frame observer on the decoder's
// underlying reader.
func (d *Decoder) SetFrameMetrics(fm *FrameMetrics) { d.fr.SetMetrics(fm) }
