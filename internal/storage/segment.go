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
// single payload symbol: it maps the finished file once, checks the footer in
// place and decodes its entries straight into exactly-sized per-meter chains
// whose payloads alias the mapping. It does read every payload byte once, to
// check its CRC.
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
	// footer holds the open segment's footer entries, encoded as each block
	// seals — the store reuses an underfull block's histogram lanes, so they
	// are copied out at once — and blocks counts them. len(footer) is what
	// the per-seal headroom check needs.
	footer []byte
	blocks int
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
	sw.footer = sw.footer[:0]
	sw.blocks = 0
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
	f := binary.BigEndian.AppendUint64(sw.footer, meterID)
	f = binary.BigEndian.AppendUint32(f, uint32(blk.Epoch))
	f = append(f, byte(blk.Level))
	f = binary.BigEndian.AppendUint16(f, uint16(len(blk.Hist)))
	f = binary.BigEndian.AppendUint32(f, uint32(blk.N))
	f = binary.BigEndian.AppendUint64(f, uint64(blk.FirstT))
	f = binary.BigEndian.AppendUint64(f, uint64(blk.Stride))
	f = binary.BigEndian.AppendUint64(f, math.Float64bits(blk.Sum))
	f = binary.BigEndian.AppendUint64(f, math.Float64bits(blk.MinV))
	f = binary.BigEndian.AppendUint64(f, math.Float64bits(blk.MaxV))
	f = binary.BigEndian.AppendUint64(f, uint64(sw.off))
	f = binary.BigEndian.AppendUint32(f, crc32.Checksum(blk.Payload, crcC))
	for _, c := range blk.Hist {
		f = binary.BigEndian.AppendUint32(f, uint32(c))
	}
	sw.footer = f
	sw.blocks++
	sw.off = (sw.off + need + 7) &^ 7
	return adopted, nil
}

// footerRoom returns the bytes the footer would need if the segment were
// finished right now, plus one more max-width entry — the headroom check
// that guarantees finish() always fits inside the preallocated capacity.
func (sw *segmentWriter) footerRoom() int {
	return len(sw.footer) + segBlockMetaLen + 4*1024
}

// finish writes the footer and trailer, fsyncs, shrinks the file to its real
// length, makes its directory entry durable and registers the segment in the
// manifest — never before the entry, or a power loss could leave the
// manifest naming a file the directory lost. The mapping stays alive: the
// store's published blocks alias it for the engine's lifetime.
func (sw *segmentWriter) finish() error {
	if sw.f == nil {
		return nil
	}
	if sw.blocks == 0 {
		// Nothing spilled: drop the empty file instead of manifesting it.
		err := sw.f.Close()
		sw.f = nil
		if rmErr := sw.eng.fs.Remove(sw.path); err == nil {
			err = rmErr
		}
		return err
	}
	footer := sw.footer
	trailer := make([]byte, 0, segTrailerLen)
	trailer = binary.BigEndian.AppendUint64(trailer, uint64(sw.off))
	trailer = binary.BigEndian.AppendUint32(trailer, uint32(len(footer)))
	trailer = binary.BigEndian.AppendUint32(trailer, uint32(sw.blocks))
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
	if err := sw.eng.fs.SyncDir(sw.eng.segDir()); err != nil {
		return fmt.Errorf("storage: segment directory fsync: %w", err)
	}
	return sw.eng.addSegment(manifestSegment{File: filepath.Base(sw.path), Shard: sw.shard, Seq: sw.seq - 1})
}

// segFooter is a finished segment opened for restore: the whole file mapped
// once and its frame checked — size, both magics, footer bounds and footer
// CRC — with the footer read in place, as a sub-slice of the mapping.
// restoreSegments decodes its entries.
type segFooter struct {
	path    string
	mapping []byte
	footer  []byte // the block entries, aliasing mapping
	dataEnd int64  // the footer's offset: every payload ends at or before it
	count   int    // entries the trailer declares
}

// openSegment maps path and validates its frame. On error nothing stays
// mapped or open.
func openSegment(fsys FS, path string) (segFooter, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return segFooter{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segFooter{}, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+segTrailerLen {
		return segFooter{}, fmt.Errorf("storage: segment %s: %d bytes is too small", path, size)
	}
	mapping, err := fsys.Mmap(f, int(size))
	if err != nil {
		return segFooter{}, fmt.Errorf("storage: mmap segment %s: %w", path, err)
	}
	sf := segFooter{path: path, mapping: mapping}
	trailer := mapping[size-segTrailerLen:]
	sf.dataEnd = int64(binary.BigEndian.Uint64(trailer[0:]))
	footerLen := int64(binary.BigEndian.Uint32(trailer[8:]))
	sf.count = int(binary.BigEndian.Uint32(trailer[12:]))
	switch {
	case string(trailer[20:]) != segFooterMagic:
		err = fmt.Errorf("storage: segment %s: bad footer magic", path)
	case sf.dataEnd < int64(len(segMagic)) || sf.dataEnd+footerLen+segTrailerLen != size:
		err = fmt.Errorf("storage: segment %s: footer bounds [%d,%d) disagree with size %d", path, sf.dataEnd, sf.dataEnd+footerLen, size)
	case crc32.Checksum(mapping[sf.dataEnd:sf.dataEnd+footerLen], crcC) != binary.BigEndian.Uint32(trailer[16:]):
		err = fmt.Errorf("storage: segment %s: footer CRC mismatch", path)
	case string(mapping[:len(segMagic)]) != segMagic:
		err = fmt.Errorf("storage: segment %s: bad magic", path)
	}
	if err != nil {
		fsys.Munmap(mapping)
		return segFooter{}, err
	}
	sf.footer = mapping[sf.dataEnd : sf.dataEnd+footerLen]
	return sf, nil
}

// restoreSegments decodes a shard's footers, in manifest order, straight
// into exactly-sized chains. The first walk checks every entry's bounds and
// counts each meter's blocks and the histogram lanes; then one shard-wide
// block array and one lane slab are allocated, the array is cut into
// per-meter sub-slices, and the second walk fills them in spill order —
// checking each block's level, n, lanes and payload CRC — while advancing
// each meter's skip and installed. Payloads alias the mappings. It returns
// the blocks and points restored.
func restoreSegments(segs []segFooter, meter func(uint64) *meterReplay) (blocks int, points int64, err error) {
	lanes := 0
	for _, sf := range segs {
		off := 0
		for i := 0; i < sf.count; i++ {
			if off+segBlockMetaLen > len(sf.footer) {
				return 0, 0, fmt.Errorf("storage: segment %s: footer truncated at block %d", sf.path, i)
			}
			mr := meter(binary.BigEndian.Uint64(sf.footer[off:]))
			k := int(binary.BigEndian.Uint16(sf.footer[off+13:]))
			if off += segBlockMetaLen + 4*k; off > len(sf.footer) {
				return 0, 0, fmt.Errorf("storage: segment %s: footer truncated in block %d histogram", sf.path, i)
			}
			mr.sealed++
			lanes += k
		}
		if off != len(sf.footer) {
			return 0, 0, fmt.Errorf("storage: segment %s: %d trailing footer bytes", sf.path, len(sf.footer)-off)
		}
		blocks += sf.count
	}
	chains := make([]server.SealedBlock, blocks)
	slab := make([]uint16, lanes)
	for _, sf := range segs {
		for i, off := 0, 0; i < sf.count; i++ {
			f := sf.footer[off:]
			mr := meter(binary.BigEndian.Uint64(f))
			if mr.blocks == nil {
				mr.blocks, chains = chains[:0:mr.sealed], chains[mr.sealed:]
			}
			mr.blocks = mr.blocks[:len(mr.blocks)+1]
			b := &mr.blocks[len(mr.blocks)-1]
			b.Epoch = int(binary.BigEndian.Uint32(f[8:]))
			b.Level = int(f[12])
			histK := int(binary.BigEndian.Uint16(f[13:]))
			b.N = int(binary.BigEndian.Uint32(f[15:]))
			b.FirstT = int64(binary.BigEndian.Uint64(f[19:]))
			b.Stride = int64(binary.BigEndian.Uint64(f[27:]))
			b.Sum = math.Float64frombits(binary.BigEndian.Uint64(f[35:]))
			b.MinV = math.Float64frombits(binary.BigEndian.Uint64(f[43:]))
			b.MaxV = math.Float64frombits(binary.BigEndian.Uint64(f[51:]))
			at := int64(binary.BigEndian.Uint64(f[59:]))
			crc := binary.BigEndian.Uint32(f[67:])
			off += segBlockMetaLen + 4*histK
			if histK > 0 {
				b.Hist, slab = slab[:histK:histK], slab[histK:]
				for j := range b.Hist {
					// A lane counts one block's symbols. Refuse anything a block
					// cannot hold before narrowing it to the store's 16 bits, or
					// a count that wraps could pass the histogram mass check.
					c := binary.BigEndian.Uint32(f[segBlockMetaLen+4*j:])
					if c > server.BlockCap {
						return 0, 0, fmt.Errorf("storage: segment %s: block %d histogram lane %d counts %d symbols, a block holds %d", sf.path, i, j, c, server.BlockCap)
					}
					b.Hist[j] = uint16(c)
				}
			}
			if b.Level < 1 || b.Level > 30 || b.N < 1 {
				return 0, 0, fmt.Errorf("storage: segment %s: block %d has level %d, n %d", sf.path, i, b.Level, b.N)
			}
			need := int64((b.N*b.Level + 7) / 8)
			if at < int64(len(segMagic)) || at+need > sf.dataEnd {
				return 0, 0, fmt.Errorf("storage: segment %s: block %d payload [%d,%d) outside data region", sf.path, i, at, at+need)
			}
			b.Payload = sf.mapping[at : at+need : at+need]
			if crc32.Checksum(b.Payload, crcC) != crc {
				return 0, 0, fmt.Errorf("storage: segment %s: block %d payload CRC mismatch", sf.path, i)
			}
			b.Spilled = canMmap
			mr.skip += int64(b.N)
			mr.installed = max(mr.installed, b.Epoch+1)
			points += int64(b.N)
		}
	}
	return blocks, points, nil
}
