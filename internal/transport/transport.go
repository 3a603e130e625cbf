// Package transport implements the sensor → aggregation-server protocol the
// paper sketches in §2: "the lookup table is built once at the sensor level
// and then sent to the aggregation server before starting to send the
// symbolic data", with support for "rebuilding and resending the lookup
// table periodically or if the distribution of the data changes too much".
//
// The wire format is length-prefixed frames over any io.Writer/io.Reader
// (tested over bytes.Buffer, net.Pipe and real TCP):
//
//	frame   = type(1) | length(uint32 BE) | payload
//	'H'     = session handshake: version(1) | flags(1) | meterID(uint64 BE);
//	          must be the first frame of an ingest session and must set
//	          FlagSequenced
//	'U'     = table:  seq(uint64 BE) | lookup table (symbolic.MarshalTable)
//	'D'     = batch:  seq(uint64 BE) | firstT(int64 BE) | window(int64 BE) |
//	          packed symbols of consecutive windows (symbolic.AppendPack)
//	'A'     = ack:    seq(uint64 BE) — the server's committed per-meter
//	          high-water mark. Sent once as the handshake reply (so a
//	          reconnecting client learns what survived) and once per
//	          committed or duplicate-suppressed 'U'/'D' frame.
//	'E'     = end of stream (empty payload)
//
// A batch holds symbols of consecutive windows only; a sender starts a new
// batch when a data gap breaks consecutiveness, so timestamps are
// reconstructed exactly as firstT + i*window.
//
// Sequence numbers start at 1 and increase by exactly one per 'U'/'D'
// frame across the meter's lifetime (not per connection). The server
// commits seq == hwm+1 and advances, suppresses seq <= hwm as a duplicate
// (still acked — that is what makes retry-after-reset exactly-once), and
// tears the session on a gap. Per-frame refusals (storage degraded, shard
// overloaded) arrive as 'X' frames carrying the refused seq in the id
// field; the session survives them, so a client backs off and resends the
// same seq.
//
// pkg/client's Session writes this stream; Decoder reads it. The
// aggregation service in internal/server requires the 'H' frame to route a
// connection to its per-meter session.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"symmeter/internal/symbolic"
)

// Frame types as they appear on the wire.
const (
	FrameHandshake byte = 'H'
	FrameEnd       byte = 'E'
	FrameSeqTable  byte = 'U'
	FrameSeqSymbol byte = 'D'
	FrameAck       byte = 'A'
)

// ProtocolVersion is the sensor→server protocol version carried in the
// handshake frame. A server refuses every other version — v1's flag-less,
// unacknowledged stream included — with ErrVersionMismatch rather than
// guessing at frame semantics.
const ProtocolVersion byte = 2

// Handshake flag bits. Unknown bits are rejected, not ignored — a future
// revision that needs more must bump ProtocolVersion.
const (
	// FlagSequenced marks the sequenced, acknowledged session — the only
	// kind there is, so a handshake without it is refused: the server
	// replies to the handshake with an 'A' frame carrying the meter's
	// committed high-water mark and acks every 'U'/'D' frame.
	FlagSequenced byte = 1 << 0

	flagsKnown = FlagSequenced
)

// MaxFrame is the largest payload a peer may send; frames claiming more
// are rejected with ErrFrameTooLarge before any allocation, so a corrupted
// length field cannot force a huge buffer.
const MaxFrame = 16 << 20

// Typed protocol errors. Every malformed input maps onto one of these (via
// errors.Is) so servers can tell protocol abuse from transport failures.
var (
	// ErrFrameTooLarge reports a frame header whose length field exceeds
	// MaxFrame.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrVersionMismatch reports a handshake from an incompatible protocol
	// version.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrBadHandshake reports a missing, truncated, or malformed 'H' frame
	// where a session handshake was required.
	ErrBadHandshake = errors.New("transport: bad handshake frame")
	// ErrSymbolBeforeTable reports a symbol batch arriving before any
	// lookup table, which makes the stream undecodable.
	ErrSymbolBeforeTable = errors.New("transport: symbol frame before any table")
	// ErrUnknownFrame reports a frame type outside the protocol alphabet.
	ErrUnknownFrame = errors.New("transport: unknown frame type")
)

// writeFrame emits one frame. Empty payloads are never written separately:
// a zero-length Write would block forever on fully synchronous transports
// like net.Pipe, whose writes always wait for a matching read while
// ReadFull with an empty buffer never issues one.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// Handshake identifies one meter's session stream.
type Handshake struct {
	Version byte
	Flags   byte
	MeterID uint64
}

// handshakeLen is the exact payload size of an 'H' frame:
// version | flags | meterID.
const handshakeLen = 10

// WriteHandshakeFlags opens a session stream by sending the 'H' frame for
// the given meter at the current protocol version with the given flag bits;
// a server admits only FlagSequenced.
func WriteHandshakeFlags(w io.Writer, meterID uint64, flags byte) error {
	var payload [handshakeLen]byte
	payload[0] = ProtocolVersion
	payload[1] = flags
	binary.BigEndian.PutUint64(payload[2:], meterID)
	return writeFrame(w, FrameHandshake, payload[:])
}

// ReadHandshake reads and validates the 'H' frame that must open a session
// stream. Truncated, mistyped or mis-sized frames surface as
// ErrBadHandshake; any version but ProtocolVersion — a 9-byte v1 payload
// included — as ErrVersionMismatch; unknown flag bits, or a handshake
// without FlagSequenced, as ErrBadHandshake (a client that needs semantics
// this server lacks must not be half-understood).
func ReadHandshake(r io.Reader) (Handshake, error) {
	typ, payload, err := NewFrameReader(r).Next()
	if err != nil {
		return Handshake{}, fmt.Errorf("%w: %w", ErrBadHandshake, err)
	}
	if typ != FrameHandshake {
		return Handshake{}, fmt.Errorf("%w: got frame type %#x, want 'H'", ErrBadHandshake, typ)
	}
	var hs Handshake
	if len(payload) > 0 {
		hs.Version = payload[0]
	}
	if len(payload) == handshakeLen {
		hs.Flags, hs.MeterID = payload[1], binary.BigEndian.Uint64(payload[2:])
	}
	switch {
	case len(payload) > 0 && hs.Version != ProtocolVersion:
		return hs, fmt.Errorf("%w: peer speaks v%d, server speaks v%d", ErrVersionMismatch, hs.Version, ProtocolVersion)
	case len(payload) != handshakeLen:
		return Handshake{}, fmt.Errorf("%w: payload of %d bytes, want %d", ErrBadHandshake, len(payload), handshakeLen)
	case hs.Flags&^flagsKnown != 0:
		return hs, fmt.Errorf("%w: unknown flag bits %#x", ErrBadHandshake, hs.Flags&^flagsKnown)
	case hs.Flags&FlagSequenced == 0:
		return hs, fmt.Errorf("%w: FlagSequenced not set", ErrBadHandshake)
	}
	return hs, nil
}

// ackLen is the exact payload size of an 'A' frame.
const ackLen = 8

// AppendAckFrame appends the complete 'A' frame for seq to buf — the
// server's single-write ack path.
func AppendAckFrame(buf []byte, seq uint64) []byte {
	var p [5 + ackLen]byte
	p[0] = FrameAck
	binary.BigEndian.PutUint32(p[1:5], ackLen)
	binary.BigEndian.PutUint64(p[5:], seq)
	return append(buf, p[:]...)
}

// DecodeAck decodes an 'A' frame payload into the acked sequence number.
func DecodeAck(payload []byte) (uint64, error) {
	if len(payload) != ackLen {
		return 0, fmt.Errorf("transport: ack payload of %d bytes, want %d", len(payload), ackLen)
	}
	return binary.BigEndian.Uint64(payload), nil
}

// Event is one decoded protocol frame, as produced by Decoder.Next.
type Event struct {
	// Type is the frame type: FrameSeqTable, FrameSeqSymbol or FrameEnd.
	Type byte
	// Seq is the frame's sequence number for FrameSeqTable and
	// FrameSeqSymbol events; zero otherwise.
	Seq uint64
	// Table is set for FrameSeqTable events.
	Table *symbolic.Table
	// Points is set for FrameSeqSymbol events: the batch's symbols with
	// their reconstructed window-end timestamps. The slice
	// aliases the Decoder's reusable scratch buffer and is valid only until
	// the next call to Next; a caller that keeps the batch must copy it.
	Points []symbolic.SymbolPoint
}

// Decoder incrementally decodes a sensor stream frame by frame, handing each
// table and symbol batch to the caller as it arrives — what a concurrent
// per-meter session loop needs: state lands in a shared store batch by batch
// instead of accumulating per connection.
//
// The Decoder owns three scratch buffers — the FrameReader's payload, the
// unpacked symbols and the emitted points — that are reused across Next
// calls, so a steady-state session decodes symbol batches without
// allocating.
type Decoder struct {
	fr     FrameReader
	tables int

	syms []symbolic.Symbol
	pts  []symbolic.SymbolPoint
}

// NewDecoder wraps a reader positioned after any handshake.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{fr: FrameReader{r: r}} }

// TableEstablished marks the stream's symbol-before-table precondition as
// met out of band. A reconnecting sequenced session resumes against the
// table its meter already committed — the server seeds the fresh decoder
// instead of making the client re-announce a table the handshake's
// high-water mark proves is durable.
func (d *Decoder) TableEstablished() { d.tables++ }

// Next decodes one frame. It returns io.EOF only on a clean stream end
// between frames; an FrameEnd event signals orderly protocol shutdown.
//
// The returned event's Points slice is reused by the next call; see Event.
func (d *Decoder) Next() (Event, error) {
	typ, payload, err := d.fr.Next()
	if err != nil {
		return Event{}, err
	}
	switch typ {
	case FrameSeqTable:
		if len(payload) < 8 {
			return Event{}, errors.New("transport: short sequenced table frame")
		}
		seq := binary.BigEndian.Uint64(payload[0:8])
		t, err := symbolic.UnmarshalTable(payload[8:])
		if err != nil {
			return Event{}, fmt.Errorf("transport: bad table frame: %w", err)
		}
		d.tables++
		return Event{Type: FrameSeqTable, Seq: seq, Table: t}, nil
	case FrameSeqSymbol:
		if len(payload) < 8 {
			return Event{}, errors.New("transport: short sequenced symbol frame")
		}
		seq := binary.BigEndian.Uint64(payload[0:8])
		pts, err := d.decodeBatch(payload[8:])
		if err != nil {
			return Event{}, err
		}
		return Event{Type: FrameSeqSymbol, Seq: seq, Points: pts}, nil
	case FrameEnd:
		return Event{Type: FrameEnd}, nil
	case FrameHandshake:
		return Event{}, fmt.Errorf("%w: handshake after session start", ErrBadHandshake)
	default:
		return Event{}, fmt.Errorf("%w: %#x", ErrUnknownFrame, typ)
	}
}

// decodeBatch decodes a 'D' frame's firstT | window | packed body into the
// reusable point scratch.
func (d *Decoder) decodeBatch(body []byte) ([]symbolic.SymbolPoint, error) {
	if d.tables == 0 {
		return nil, ErrSymbolBeforeTable
	}
	if len(body) < 16 {
		return nil, errors.New("transport: short symbol frame")
	}
	firstT := int64(binary.BigEndian.Uint64(body[0:8]))
	window := int64(binary.BigEndian.Uint64(body[8:16]))
	if window <= 0 {
		return nil, errors.New("transport: bad window in symbol frame")
	}
	var err error
	d.syms, err = symbolic.UnpackInto(d.syms, body[16:])
	if err != nil {
		return nil, fmt.Errorf("transport: bad symbol frame: %w", err)
	}
	if cap(d.pts) < len(d.syms) {
		d.pts = make([]symbolic.SymbolPoint, len(d.syms))
	}
	pts := d.pts[:len(d.syms)]
	for i, sym := range d.syms {
		pts[i] = symbolic.SymbolPoint{T: firstT + int64(i)*window, S: sym}
	}
	return pts, nil
}
