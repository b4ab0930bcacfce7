package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"unsafe"

	"gedlib"
)

// Checkpoint file layout (all integers little endian):
//
//	 0  magic "GEDCKPT1" (8 bytes)
//	 8  u32 format version (2)
//	12  u32 section count
//	16  u64 graph version
//	24  u32 IEEE CRC32 of everything from the first section's offset on
//	28  u32 payload start offset
//	32  u64 leadership epoch (format ≥ 2)
//	40  section table: count × { u32 id, u32 pad, u64 offset, u64 length }
//	    then 8-aligned sections, each padded to 8 bytes
//
// Offsets are absolute file offsets and 8-aligned, so a loader can mmap
// the file and alias the u32/u64 columns of the GraphImage in place.
//
// Format 1 files (no epoch field, 32-byte header) are still loadable
// and read back as epoch 0.

const (
	ckptMagic         = "GEDCKPT1"
	ckptFormatVersion = 2
	ckptHeaderBytes   = 40
	ckptHeaderBytesV1 = 32
	ckptEntryBytes    = 24
)

// Section ids: the columns of a GraphImage plus the serving metadata.
const (
	secNodeLabel uint32 = iota + 1
	secEdgeSrc
	secEdgeLabel
	secEdgeDst
	secAttrNode
	secAttrName
	secAttrKind
	secAttrVal
	secLabels    // string table
	secAttrNames // string table
	secStrings   // string table
	secNames     // string table: wire names by NodeID
	secRules     // raw DSL source bytes
)

func align8(n int) int { return (n + 7) &^ 7 }

// u32view aliases 8-aligned mapped bytes as []uint32 without copying;
// misaligned input (read fallback path) decodes portably instead.
func u32view(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func u64view(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// decodeStringTable parses a string table section (see
// emitStringTable). The returned
// strings are copies — safe to keep after the mapping is gone.
func decodeStringTable(b []byte) ([]string, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("persist: string table too short")
	}
	count := binary.LittleEndian.Uint64(b)
	if count > uint64(len(b)) {
		return nil, fmt.Errorf("persist: implausible string table count %d", count)
	}
	head := 8 * (count + 1)
	if uint64(len(b)) < head {
		return nil, fmt.Errorf("persist: string table header truncated")
	}
	data := b[head:]
	out := make([]string, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		end := binary.LittleEndian.Uint64(b[8*(i+1):])
		if end < prev || end > uint64(len(data)) {
			return nil, fmt.Errorf("persist: string table offsets out of order")
		}
		out[i] = string(data[prev:end])
		prev = end
	}
	return out, nil
}

// writeCheckpoint writes c as ckpt-<version>.ged in dir via a temp
// file + rename (writeTemp, then installCheckpoint), returning the
// version captured. With sync, the file and directory are fsynced
// before and after the rename, so a crash at any point leaves either the
// old or the new checkpoint fully intact. A write that fails partway
// (disk full, I/O error) is cleaned up the same way: the temp file is
// removed and the previous checkpoint is untouched and loadable. epoch
// is the leadership epoch of the writer; recovery uses it to disqualify
// a checkpoint a deposed leader managed to publish past its fence bound.
func (s *Store) writeCheckpoint(dir string, c Cut, epoch uint64, sync bool) (uint64, error) {
	tmp, v, err := s.writeTemp(dir, c, epoch, sync)
	if err != nil {
		return 0, err
	}
	return v, s.installCheckpoint(dir, tmp, v, sync)
}

// writeTemp writes c's checkpoint to a fresh temp file in dir, fsynced
// with sync, and returns the file's name and the version it captures;
// on error no temp file is left. The image's columns are the one buffer
// the size of the graph: the sections stream out of them through a
// bounded scratch buffer twice, once into the CRC the header carries
// and once into the file.
func (s *Store) writeTemp(dir string, c Cut, epoch uint64, sync bool) (string, uint64, error) {
	img := c.Snap.Image(c.Yield)
	sections := []section{
		u32Section(secNodeLabel, img.NodeLabel),
		u32Section(secEdgeSrc, img.EdgeSrc),
		u32Section(secEdgeLabel, img.EdgeLabel),
		u32Section(secEdgeDst, img.EdgeDst),
		u32Section(secAttrNode, img.AttrNode),
		u32Section(secAttrName, img.AttrName),
		{secAttrKind, len(img.AttrKind), func(w *chunkWriter) { w.write(img.AttrKind) }},
		u64Section(secAttrVal, img.AttrVal),
		stringTableSection(secLabels, img.Labels),
		stringTableSection(secAttrNames, img.AttrNames),
		stringTableSection(secStrings, img.Strings),
		stringTableSection(secNames, c.Names),
		{secRules, len(c.Rules), func(w *chunkWriter) { w.write(stringBytes(c.Rules)) }},
	}

	payloadStart := align8(ckptHeaderBytes + ckptEntryBytes*len(sections))
	header := make([]byte, payloadStart)
	copy(header, ckptMagic)
	binary.LittleEndian.PutUint32(header[8:], ckptFormatVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(header[16:], img.Version)
	binary.LittleEndian.PutUint32(header[28:], uint32(payloadStart))
	binary.LittleEndian.PutUint64(header[32:], epoch)
	off := payloadStart
	for i, sec := range sections {
		e := ckptHeaderBytes + ckptEntryBytes*i
		binary.LittleEndian.PutUint32(header[e:], sec.id)
		binary.LittleEndian.PutUint64(header[e+8:], uint64(off))
		binary.LittleEndian.PutUint64(header[e+16:], uint64(sec.size))
		off += align8(sec.size)
	}
	payload := func(w *chunkWriter) {
		var zeros [8]byte
		for _, sec := range sections {
			sec.emit(w)
			w.write(zeros[:align8(sec.size)-sec.size])
		}
	}
	scratch := make([]byte, 0, min(checkpointChunk, off))
	var crc uint32
	sum := &chunkWriter{buf: scratch, sink: func(p []byte) error {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		return nil
	}}
	payload(sum)
	sum.flush()
	binary.LittleEndian.PutUint32(header[24:], crc)

	tmp, err := s.fs.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return "", 0, fmt.Errorf("persist: write checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(what string, err error) (string, uint64, error) {
		_ = tmp.Close()
		_ = s.fs.Remove(tmpName)
		return "", 0, fmt.Errorf("persist: %s checkpoint: %w", what, err)
	}
	out := &chunkWriter{buf: scratch[:0], sink: func(p []byte) error {
		_, err := tmp.Write(p)
		if c.Yield != nil {
			c.Yield()
		}
		return err
	}}
	out.write(header)
	payload(out)
	if err := out.flush(); err != nil {
		return fail("write", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			return fail("sync", err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = s.fs.Remove(tmpName)
		return "", 0, fmt.Errorf("persist: close checkpoint: %w", err)
	}
	return tmpName, img.Version, nil
}

// installCheckpoint renames the written temp file into place as the
// checkpoint at version v and, with sync, fsyncs the directory. On error
// the temp file is removed.
func (s *Store) installCheckpoint(dir, tmpName string, v uint64, sync bool) error {
	if err := s.fs.Rename(tmpName, filepath.Join(dir, ckptName(v))); err != nil {
		_ = s.fs.Remove(tmpName)
		return fmt.Errorf("persist: publish checkpoint: %w", err)
	}
	if sync {
		_ = s.fs.SyncDir(dir)
	}
	return nil
}

// checkpointChunk bounds the scratch buffer a checkpoint streams
// through; sections at least this long go to the sink whole.
const checkpointChunk = 256 << 10

// section is one checkpoint section: its id, its length in bytes, and
// how to produce those bytes in order.
type section struct {
	id   uint32
	size int
	emit func(w *chunkWriter)
}

// chunkWriter batches a checkpoint's bytes into its scratch buffer and
// hands them to sink a buffer at a time; a slice at least as long as
// the buffer goes to sink directly. The first sink error sticks.
type chunkWriter struct {
	buf  []byte
	sink func([]byte) error
	err  error
}

func (w *chunkWriter) write(p []byte) {
	if len(p) <= cap(w.buf)-len(w.buf) {
		w.buf = append(w.buf, p...)
		return
	}
	w.spill(p)
}

// spill is write for a p that does not fit in what is left of the
// buffer.
func (w *chunkWriter) spill(p []byte) {
	w.flush()
	if len(p) >= cap(w.buf) {
		if w.err == nil {
			w.err = w.sink(p)
		}
		return
	}
	w.buf = append(w.buf, p...)
}

// u64 writes v as 8 little-endian bytes.
func (w *chunkWriter) u64(v uint64) {
	if cap(w.buf)-len(w.buf) < 8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *chunkWriter) flush() error {
	if len(w.buf) > 0 && w.err == nil {
		w.err = w.sink(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// nativeLE reports a little-endian host, where a numeric column's
// memory already is its on-disk bytes.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func u32Section(id uint32, xs []uint32) section {
	return section{id, 4 * len(xs), func(w *chunkWriter) {
		if nativeLE {
			w.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs)))
			return
		}
		var b [4]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], x)
			w.write(b[:])
		}
	}}
}

func u64Section(id uint32, xs []uint64) section {
	return section{id, 8 * len(xs), func(w *chunkWriter) {
		if nativeLE {
			w.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs)))
			return
		}
		for _, x := range xs {
			w.u64(x)
		}
	}}
}

// stringTableSection lays out a string table: u64 count, u64
// end-offsets (relative to the data area), then the concatenated bytes.
func stringTableSection(id uint32, ss []string) section {
	size := 8 * (len(ss) + 1)
	for _, s := range ss {
		size += len(s)
	}
	return section{id, size, func(w *chunkWriter) {
		w.u64(uint64(len(ss)))
		end := 0
		for _, s := range ss {
			end += len(s)
			w.u64(uint64(end))
		}
		for _, s := range ss {
			w.write(stringBytes(s))
		}
	}}
}

// stringBytes views s's bytes without copying; the writer only reads
// them.
func stringBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// loadCheckpoint maps (or reads — see FS.Map) a checkpoint file and
// rebuilds its State, returning the captured graph version and the
// leadership epoch of the writer (0 for format-1 files). Validation is
// end-to-end: magic, format version, CRC, then every image index
// bounds-checked by ImportImage.
func (s *Store) loadCheckpoint(path string) (State, uint64, uint64, error) {
	var zero State
	data, unmap, err := s.fs.Map(path)
	if err != nil {
		return zero, 0, 0, err
	}
	defer unmap()

	if len(data) < ckptHeaderBytesV1 || string(data[:8]) != ckptMagic {
		return zero, 0, 0, fmt.Errorf("persist: %s: not a checkpoint file", path)
	}
	headerBytes := ckptHeaderBytes
	switch v := binary.LittleEndian.Uint32(data[8:]); v {
	case 1:
		headerBytes = ckptHeaderBytesV1
	case ckptFormatVersion:
	default:
		return zero, 0, 0, fmt.Errorf("persist: %s: unsupported checkpoint format %d", path, v)
	}
	if len(data) < headerBytes {
		return zero, 0, 0, fmt.Errorf("persist: %s: corrupt checkpoint header", path)
	}
	nSections := binary.LittleEndian.Uint32(data[12:])
	version := binary.LittleEndian.Uint64(data[16:])
	wantCRC := binary.LittleEndian.Uint32(data[24:])
	payloadStart := binary.LittleEndian.Uint32(data[28:])
	epoch := uint64(0)
	if headerBytes >= ckptHeaderBytes {
		epoch = binary.LittleEndian.Uint64(data[32:])
	}
	if uint64(payloadStart) > uint64(len(data)) ||
		uint64(payloadStart) < uint64(headerBytes+ckptEntryBytes*int(nSections)) {
		return zero, 0, 0, fmt.Errorf("persist: %s: corrupt checkpoint header", path)
	}
	if crc32.ChecksumIEEE(data[payloadStart:]) != wantCRC {
		return zero, 0, 0, fmt.Errorf("persist: %s: checkpoint CRC mismatch", path)
	}
	secs := make(map[uint32][]byte, nSections)
	for i := 0; i < int(nSections); i++ {
		e := headerBytes + ckptEntryBytes*i
		id := binary.LittleEndian.Uint32(data[e:])
		off := binary.LittleEndian.Uint64(data[e+8:])
		n := binary.LittleEndian.Uint64(data[e+16:])
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			return zero, 0, 0, fmt.Errorf("persist: %s: section %d out of bounds", path, id)
		}
		secs[id] = data[off : off+n]
	}

	img := &gedlib.GraphImage{
		Version:   version,
		NodeLabel: u32view(secs[secNodeLabel]),
		EdgeSrc:   u32view(secs[secEdgeSrc]),
		EdgeLabel: u32view(secs[secEdgeLabel]),
		EdgeDst:   u32view(secs[secEdgeDst]),
		AttrNode:  u32view(secs[secAttrNode]),
		AttrName:  u32view(secs[secAttrName]),
		AttrKind:  secs[secAttrKind],
		AttrVal:   u64view(secs[secAttrVal]),
	}
	for _, tbl := range []struct {
		id   uint32
		dst  *[]string
		name string
	}{
		{secLabels, &img.Labels, "labels"},
		{secAttrNames, &img.AttrNames, "attr names"},
		{secStrings, &img.Strings, "strings"},
	} {
		ss, err := decodeStringTable(secs[tbl.id])
		if err != nil {
			return zero, 0, 0, fmt.Errorf("persist: %s: %s: %w", path, tbl.name, err)
		}
		*tbl.dst = ss
	}
	g, err := gedlib.ImportImage(img)
	if err != nil {
		return zero, 0, 0, fmt.Errorf("persist: %s: %w", path, err)
	}
	names, err := decodeStringTable(secs[secNames])
	if err != nil {
		return zero, 0, 0, fmt.Errorf("persist: %s: names: %w", path, err)
	}
	// The graph and the names copy out of the mapping; rules too.
	return State{Graph: g, Names: names, Rules: string(secs[secRules])}, version, epoch, nil
}
