package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"symmeter/internal/server"
)

// Sealed-segment files.
//
// A segment is one shard's spill target: the moment a block seals, its
// packed payload is written into the shard's open segment and the store
// adopts an mmapped view of those very bytes as the block's payload — the
// heap copy is recycled and from then on queries aggregate straight over the
// on-disk words through the same LUT kernels (the page cache decides what is
// actually resident). Block summaries and the firstT directory travel in the
// footer, so recovery rebuilds the RCU sealed index without decoding a
// single payload symbol; it does read every payload byte once, to check its
// CRC.
//
// Layout:
//
//	magic "SYMSEG01" (8)
//	payload region: each block's packed bytes at an 8-aligned offset
//	footer: per block —
//	  meterID(u64) epoch(u32) level(u8) histK(u16) n(u32)
//	  firstT(u64) stride(u64) sum(f64) minV(f64) maxV(f64)
//	  off(u64) payloadCRC(u32) hist histK×u32
//	  (all big-endian; f64 as IEEE bits; payloadCRC is CRC-32C of the
//	  block's packed bytes, so a flipped bit in the data region fails
//	  recovery loudly instead of silently skewing edge-window kernels)
//	trailer: footerOff(u64) footerLen(u32) blocks(u32)
//	         crc32c(footer)(u32) magic "SEGFOOT1" (8)
//
// The file is created at its full capacity (ftruncate — sparse, no disk is
// allocated) and mmapped once, read-only and shared, so payload writes
// through the fd are immediately visible to the mapping via the unified
// page cache. finish() lands the footer and shrinks the file to its real
// size; the mapping stays valid for the in-bounds pages the store
// references. A segment with no footer (a crash while it was open) is
// unreadable by design — its blocks are re-derived from the WAL — and is
// deleted at recovery.
const (
	segMagic            = "SYMSEG01"
	segFooterMagic      = "SEGFOOT1"
	segTrailerLen       = 8 + 4 + 4 + 4 + 8
	segBlockMetaLen     = 8 + 4 + 1 + 2 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4
	defaultSegmentBytes = 4 << 20
)

// segBlock is one footer entry.
type segBlock struct {
	meterID uint64
	blk     server.SealedBlock
	off     int64
	crc     uint32 // CRC-32C of the payload bytes
}

// segmentWriter spills one shard's sealing blocks. All methods run under
// that shard's store lock (the seal path), so the writer needs no locking of
// its own; only finish() touches engine-shared state (the manifest),
// through the engine callback.
type segmentWriter struct {
	eng   *Engine
	shard int
	seq   uint64 // sequence of the NEXT segment to open
	cap   int

	f    File
	m    []byte // shared read-only mapping of the whole capacity (nil on !canMmap)
	path string
	off  int64
	meta []segBlock
	// metaBytes is the footer size the blocks in meta encode to, kept as a
	// running total so the per-seal headroom check is O(1).
	metaBytes int
}

func segName(shard int, seq uint64) string {
	return fmt.Sprintf("%04d-%06d.seg", shard, seq)
}

// open creates the next segment file at full capacity and maps it.
func (sw *segmentWriter) open() error {
	sw.path = filepath.Join(sw.eng.segDir(), segName(sw.shard, sw.seq))
	f, err := sw.eng.fs.OpenFile(sw.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Truncate(int64(sw.cap)); err != nil {
		f.Close()
		return err
	}
	if canMmap {
		m, err := sw.eng.fs.Mmap(f, sw.cap)
		if err != nil {
			f.Close()
			return fmt.Errorf("storage: mmap segment %s: %w", sw.path, err)
		}
		sw.m = m
		sw.eng.trackMapping(m)
	}
	sw.f = f
	sw.off = int64(len(segMagic))
	sw.meta = sw.meta[:0]
	sw.metaBytes = 0
	sw.seq++
	return nil
}

// SealedBlock implements server.SealSink: the block's payload lands in the
// open segment and the returned slice aliases the mapping, which is what
// evicts the sealed bytes from the heap.
func (sw *segmentWriter) SealedBlock(meterID uint64, blk server.SealedBlock) ([]byte, error) {
	need := int64(len(blk.Payload))
	if sw.f != nil && sw.off+need > int64(sw.cap)-int64(sw.footerRoom()+segTrailerLen) {
		if err := sw.finish(); err != nil {
			return nil, err
		}
	}
	if sw.f == nil {
		if err := sw.open(); err != nil {
			return nil, err
		}
	}
	if _, err := sw.f.WriteAt(blk.Payload, sw.off); err != nil {
		return nil, fmt.Errorf("storage: segment write: %w", err)
	}
	adopted := blk.Payload
	if sw.m != nil {
		adopted = sw.m[sw.off : sw.off+need : sw.off+need]
	}
	// The footer references the caller's Hist slice; sealed summaries never
	// mutate after the seal, so aliasing is safe until finish() encodes it.
	sw.meta = append(sw.meta, segBlock{
		meterID: meterID,
		blk:     blk,
		off:     sw.off,
		crc:     crc32.Checksum(blk.Payload, crcC),
	})
	sw.metaBytes += segBlockMetaLen + 4*len(blk.Hist)
	sw.off = (sw.off + need + 7) &^ 7
	return adopted, nil
}

// footerRoom returns the bytes the footer would need if the segment were
// finished right now, plus one more max-width entry — the headroom check
// that guarantees finish() always fits inside the preallocated capacity.
func (sw *segmentWriter) footerRoom() int {
	return sw.metaBytes + segBlockMetaLen + 4*1024
}

// finish writes the footer and trailer, fsyncs, shrinks the file to its real
// length and registers the segment in the manifest. The mapping stays alive:
// the store's published blocks alias it for the engine's lifetime.
func (sw *segmentWriter) finish() error {
	if sw.f == nil {
		return nil
	}
	if len(sw.meta) == 0 {
		// Nothing spilled: drop the empty file instead of manifesting it.
		err := sw.f.Close()
		sw.f = nil
		if rmErr := sw.eng.fs.Remove(sw.path); err == nil {
			err = rmErr
		}
		return err
	}
	footer := make([]byte, 0, sw.footerRoom())
	for i := range sw.meta {
		e := &sw.meta[i]
		footer = binary.BigEndian.AppendUint64(footer, e.meterID)
		footer = binary.BigEndian.AppendUint32(footer, uint32(e.blk.Epoch))
		footer = append(footer, byte(e.blk.Level))
		footer = binary.BigEndian.AppendUint16(footer, uint16(len(e.blk.Hist)))
		footer = binary.BigEndian.AppendUint32(footer, uint32(e.blk.N))
		footer = binary.BigEndian.AppendUint64(footer, uint64(e.blk.FirstT))
		footer = binary.BigEndian.AppendUint64(footer, uint64(e.blk.Stride))
		footer = binary.BigEndian.AppendUint64(footer, math.Float64bits(e.blk.Sum))
		footer = binary.BigEndian.AppendUint64(footer, math.Float64bits(e.blk.MinV))
		footer = binary.BigEndian.AppendUint64(footer, math.Float64bits(e.blk.MaxV))
		footer = binary.BigEndian.AppendUint64(footer, uint64(e.off))
		footer = binary.BigEndian.AppendUint32(footer, e.crc)
		for _, c := range e.blk.Hist {
			footer = binary.BigEndian.AppendUint32(footer, c)
		}
	}
	trailer := make([]byte, 0, segTrailerLen)
	trailer = binary.BigEndian.AppendUint64(trailer, uint64(sw.off))
	trailer = binary.BigEndian.AppendUint32(trailer, uint32(len(footer)))
	trailer = binary.BigEndian.AppendUint32(trailer, uint32(len(sw.meta)))
	trailer = binary.BigEndian.AppendUint32(trailer, crc32.Checksum(footer, crcC))
	trailer = append(trailer, segFooterMagic...)
	if _, err := sw.f.WriteAt(footer, sw.off); err != nil {
		return fmt.Errorf("storage: segment footer: %w", err)
	}
	if _, err := sw.f.WriteAt(trailer, sw.off+int64(len(footer))); err != nil {
		return fmt.Errorf("storage: segment trailer: %w", err)
	}
	if err := sw.f.Sync(); err != nil {
		return fmt.Errorf("storage: segment fsync: %w", err)
	}
	if err := sw.f.Truncate(sw.off + int64(len(footer)) + segTrailerLen); err != nil {
		return fmt.Errorf("storage: segment truncate: %w", err)
	}
	err := sw.f.Close()
	sw.f = nil
	if err != nil {
		return err
	}
	return sw.eng.addSegment(manifestSegment{File: filepath.Base(sw.path), Shard: sw.shard, Seq: sw.seq - 1})
}

// loadSegment reads a finished segment back: footer validation, one shared
// mapping, and per-block SealedBlock views whose payloads alias the mapping.
// Returned blocks are in spill (= seal) order.
func loadSegment(fsys FS, path string) (blocks []segBlock, mapping []byte, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+segTrailerLen {
		return nil, nil, fmt.Errorf("storage: segment %s: %d bytes is too small", path, size)
	}
	var trailer [segTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-segTrailerLen); err != nil {
		return nil, nil, err
	}
	if string(trailer[20:]) != segFooterMagic {
		return nil, nil, fmt.Errorf("storage: segment %s: bad footer magic", path)
	}
	footerOff := int64(binary.BigEndian.Uint64(trailer[0:]))
	footerLen := int64(binary.BigEndian.Uint32(trailer[8:]))
	count := int(binary.BigEndian.Uint32(trailer[12:]))
	wantCRC := binary.BigEndian.Uint32(trailer[16:])
	if footerOff < int64(len(segMagic)) || footerOff+footerLen+segTrailerLen != size {
		return nil, nil, fmt.Errorf("storage: segment %s: footer bounds [%d,%d) disagree with size %d", path, footerOff, footerOff+footerLen, size)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, footerOff); err != nil {
		return nil, nil, err
	}
	if crc32.Checksum(footer, crcC) != wantCRC {
		return nil, nil, fmt.Errorf("storage: segment %s: footer CRC mismatch", path)
	}
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, nil, err
	}
	if string(hdr[:]) != segMagic {
		return nil, nil, fmt.Errorf("storage: segment %s: bad magic", path)
	}
	mapping, err = fsys.Mmap(f, int(size))
	if err != nil {
		return nil, nil, fmt.Errorf("storage: mmap segment %s: %w", path, err)
	}
	// One histogram slab per segment, sized exactly from the entries' histK
	// before the decode loop and carved full-slice per block — so restoring a
	// segment is one allocation instead of one per block, and each block still
	// owns (and MemoryFootprint still counts) exactly its own lanes. A footer
	// the walk below would reject stops this one at the same entry.
	lanes := 0
	for i, off := 0, 0; i < count && off+segBlockMetaLen <= len(footer); i++ {
		k := int(binary.BigEndian.Uint16(footer[off+13:]))
		lanes += k
		off += segBlockMetaLen + 4*k
	}
	slab := make([]uint32, lanes)
	blocks = make([]segBlock, 0, count)
	off := 0
	for i := 0; i < count; i++ {
		if off+segBlockMetaLen > len(footer) {
			fsys.Munmap(mapping)
			return nil, nil, fmt.Errorf("storage: segment %s: footer truncated at block %d", path, i)
		}
		e := segBlock{meterID: binary.BigEndian.Uint64(footer[off:])}
		e.blk.Epoch = int(binary.BigEndian.Uint32(footer[off+8:]))
		e.blk.Level = int(footer[off+12])
		histK := int(binary.BigEndian.Uint16(footer[off+13:]))
		e.blk.N = int(binary.BigEndian.Uint32(footer[off+15:]))
		e.blk.FirstT = int64(binary.BigEndian.Uint64(footer[off+19:]))
		e.blk.Stride = int64(binary.BigEndian.Uint64(footer[off+27:]))
		e.blk.Sum = math.Float64frombits(binary.BigEndian.Uint64(footer[off+35:]))
		e.blk.MinV = math.Float64frombits(binary.BigEndian.Uint64(footer[off+43:]))
		e.blk.MaxV = math.Float64frombits(binary.BigEndian.Uint64(footer[off+51:]))
		e.off = int64(binary.BigEndian.Uint64(footer[off+59:]))
		e.crc = binary.BigEndian.Uint32(footer[off+67:])
		off += segBlockMetaLen
		if histK > 0 {
			if off+4*histK > len(footer) {
				fsys.Munmap(mapping)
				return nil, nil, fmt.Errorf("storage: segment %s: footer truncated in block %d histogram", path, i)
			}
			e.blk.Hist, slab = slab[:histK:histK], slab[histK:]
			for j := range e.blk.Hist {
				e.blk.Hist[j] = binary.BigEndian.Uint32(footer[off+4*j:])
			}
			off += 4 * histK
		}
		if e.blk.Level < 1 || e.blk.Level > 30 || e.blk.N < 1 {
			fsys.Munmap(mapping)
			return nil, nil, fmt.Errorf("storage: segment %s: block %d has level %d, n %d", path, i, e.blk.Level, e.blk.N)
		}
		need := int64((e.blk.N*e.blk.Level + 7) / 8)
		if e.off < int64(len(segMagic)) || e.off+need > footerOff {
			fsys.Munmap(mapping)
			return nil, nil, fmt.Errorf("storage: segment %s: block %d payload [%d,%d) outside data region", path, i, e.off, e.off+need)
		}
		e.blk.Payload = mapping[e.off : e.off+need : e.off+need]
		if crc32.Checksum(e.blk.Payload, crcC) != e.crc {
			fsys.Munmap(mapping)
			return nil, nil, fmt.Errorf("storage: segment %s: block %d payload CRC mismatch", path, i)
		}
		e.blk.Spilled = canMmap
		blocks = append(blocks, e)
	}
	if off != len(footer) {
		fsys.Munmap(mapping)
		return nil, nil, fmt.Errorf("storage: segment %s: %d trailing footer bytes", path, len(footer)-off)
	}
	return blocks, mapping, nil
}
