package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"gedlib"
)

// WAL record kinds (first payload byte).
const (
	recDelta byte = 1 // one coalesced batch's Delta + wire names of added nodes
	recRules byte = 2 // a rules registration: the DSL source
	recEpoch byte = 3 // a leadership transition: the promoting epoch + its fence bound
)

// maxRecordBytes bounds a single record, protecting the reader from a
// corrupted length prefix allocating the universe.
const maxRecordBytes = 1 << 30

// TailRecord is one decoded WAL record, as delivered by Store.Tail and
// consumed by recovery. Exactly one of Delta, Rules and EpochBump is
// set.
type TailRecord struct {
	// Version is the graph version after the record applies (for an
	// epoch bump: the fence bound — the version the new leader drained
	// the log to).
	Version uint64
	// Epoch is the leadership epoch of the leader that appended the
	// record (see epoch.go). Records of a deposed epoch with versions
	// beyond a later epoch's fence bound were never acknowledged and
	// are skipped by recovery and tailing.
	Epoch uint64
	// AppendedAt is the leader's wall clock when the record was
	// appended; follower staleness is time.Since of it.
	AppendedAt time.Time
	// Delta carries a batch's graph changes; Names are the wire names
	// of Delta.Nodes, parallel to it ("" = unnamed).
	Delta *gedlib.Delta
	Names []string
	// Rules carries a rules registration's DSL source.
	Rules *string
	// EpochBump marks a leadership transition: Epoch took over with its
	// fence bound at Version.
	EpochBump bool
}

// frame wraps a payload in the on-disk framing: u32 length, u32 IEEE
// CRC32 of the payload, payload (little endian).
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// scanFrames walks the framed records in b, a segment's bytes from
// offset base on, calling fn with each valid payload and moving m to
// each frame fn accepts. It returns how many bytes of b form whole
// valid frames and whether the walk stopped early on a torn or
// corrupted frame (partial header, short payload, or CRC mismatch). fn
// errors abort the scan.
func scanFrames(b []byte, base int64, m *frameMark, fn func(payload []byte) error) (valid int, corrupt bool, err error) {
	off := 0
	for {
		if len(b)-off < 8 {
			return off, len(b)-off > 0, nil
		}
		n := binary.LittleEndian.Uint32(b[off:])
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if n > maxRecordBytes || len(b)-off-8 < int(n) {
			return off, true, nil
		}
		payload := b[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, true, nil
		}
		if err := fn(payload); err != nil {
			return off, false, err
		}
		*m = frameMark{at: base + int64(off), hdr: binary.LittleEndian.Uint64(b[off:])}
		off += 8 + int(n)
	}
}

// frameMark is where the last frame a reader consumed in a segment
// starts, and its header (payload length and CRC); hdr 0 is none, as no
// payload is empty. A writer cuts a segment only back to a frame
// boundary, so while the header is in place every byte the reader
// consumed is still the log's. It cuts behind a reader when it drops the
// records a failed sync did not cover, which the reader may have read.
type frameMark struct {
	at  int64
	hdr uint64
}

// gone reports whether the marked frame has left the segment r: cut
// off, or replaced by another record. A failed read is an error, not a
// verdict.
func (m frameMark) gone(r io.ReaderAt) (bool, error) {
	if m.hdr == 0 {
		return false, nil
	}
	var b [8]byte
	if _, err := r.ReadAt(b[:], m.at); err == io.EOF {
		return true, nil
	} else if err != nil {
		return false, err
	}
	return binary.LittleEndian.Uint64(b[:]) != m.hdr, nil
}

// ---- payload encoding ----
//
// Payloads are varint+string encoded: uvarints for counts and ids,
// length-prefixed bytes for strings, fixed 8-byte little-endian for
// float bits (varint-encoding random mantissas would inflate them).

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v gedlib.Value) []byte {
	b = append(b, byte(v.Kind()))
	if v.IsNumber() {
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v.Num()))
		return append(b, fb[:]...)
	}
	return appendString(b, v.Str())
}

// encodeDelta serializes a delta record: kind, append time, leadership
// epoch, version range, then the node/edge/attr rows. names is
// parallel to d.Nodes.
func encodeDelta(ts int64, epoch uint64, d *gedlib.Delta, names []string) []byte {
	b := make([]byte, 0, 64+16*d.Size())
	b = append(b, recDelta)
	b = appendVarint(b, ts)
	b = appendUvarint(b, epoch)
	b = appendUvarint(b, d.FromVersion)
	b = appendUvarint(b, d.ToVersion)
	b = appendUvarint(b, uint64(len(d.Nodes)))
	if len(d.Nodes) > 0 {
		b = appendUvarint(b, uint64(d.Nodes[0].ID)) // ids are contiguous from here
	}
	for i, n := range d.Nodes {
		b = appendString(b, string(n.Label))
		name := ""
		if i < len(names) {
			name = names[i]
		}
		b = appendString(b, name)
	}
	b = appendUvarint(b, uint64(len(d.Edges)))
	for _, e := range d.Edges {
		b = appendUvarint(b, uint64(e.Src))
		b = appendUvarint(b, uint64(e.Dst))
		b = appendString(b, string(e.Label))
	}
	b = appendUvarint(b, uint64(len(d.Attrs)))
	for _, w := range d.Attrs {
		b = appendUvarint(b, uint64(w.Node))
		b = appendString(b, string(w.Attr))
		b = appendValue(b, w.Value)
	}
	return b
}

// encodeRules serializes a rules record: kind, append time, leadership
// epoch, the graph version the rules were registered at, the DSL
// source.
func encodeRules(ts int64, epoch uint64, version uint64, src string) []byte {
	b := make([]byte, 0, 24+len(src))
	b = append(b, recRules)
	b = appendVarint(b, ts)
	b = appendUvarint(b, epoch)
	b = appendUvarint(b, version)
	b = appendString(b, src)
	return b
}

// encodeEpochBump serializes a leadership-transition record: kind,
// append time, the new epoch, and its fence bound (the version the new
// leader drained the log to before taking over).
func encodeEpochBump(ts int64, epoch uint64, version uint64) []byte {
	b := make([]byte, 0, 24)
	b = append(b, recEpoch)
	b = appendVarint(b, ts)
	b = appendUvarint(b, epoch)
	b = appendUvarint(b, version)
	return b
}

// walReader is a bounds-checked cursor over a record payload.
type walReader struct {
	b   []byte
	off int
	err error
}

func (r *walReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("persist: truncated %s in WAL record", what)
	}
}

func (r *walReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *walReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *walReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *walReader) u64() uint64 {
	if r.err != nil || len(r.b)-r.off < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *walReader) value() gedlib.Value {
	switch k := r.byte(); k {
	case 0: // string
		return gedlib.String(r.str())
	case 1: // number
		return gedlib.Number(math.Float64frombits(r.u64()))
	default:
		r.fail("value kind")
		return gedlib.Value{}
	}
}

// decodeRecord parses one payload into a TailRecord.
func decodeRecord(payload []byte) (TailRecord, error) {
	r := &walReader{b: payload}
	kind := r.byte()
	ts := r.varint()
	epoch := r.uvarint()
	var tr TailRecord
	tr.AppendedAt = time.Unix(0, ts)
	tr.Epoch = epoch
	switch kind {
	case recDelta:
		d := &gedlib.Delta{}
		d.FromVersion = r.uvarint()
		d.ToVersion = r.uvarint()
		nNodes := r.uvarint()
		if nNodes > uint64(len(payload)) {
			return tr, fmt.Errorf("persist: implausible node count %d", nNodes)
		}
		var first uint64
		if nNodes > 0 {
			first = r.uvarint()
		}
		names := make([]string, 0, nNodes)
		for i := uint64(0); i < nNodes && r.err == nil; i++ {
			label := r.str()
			name := r.str()
			d.Nodes = append(d.Nodes, gedlib.NodeAdd{ID: gedlib.NodeID(first + i), Label: gedlib.Label(label)})
			names = append(names, name)
		}
		nEdges := r.uvarint()
		if nEdges > uint64(len(payload)) {
			return tr, fmt.Errorf("persist: implausible edge count %d", nEdges)
		}
		for i := uint64(0); i < nEdges && r.err == nil; i++ {
			src := r.uvarint()
			dst := r.uvarint()
			label := r.str()
			d.Edges = append(d.Edges, gedlib.GraphEdge{Src: gedlib.NodeID(src), Label: gedlib.Label(label), Dst: gedlib.NodeID(dst)})
		}
		nAttrs := r.uvarint()
		if nAttrs > uint64(len(payload)) {
			return tr, fmt.Errorf("persist: implausible attr count %d", nAttrs)
		}
		for i := uint64(0); i < nAttrs && r.err == nil; i++ {
			node := r.uvarint()
			attr := r.str()
			val := r.value()
			d.Attrs = append(d.Attrs, gedlib.AttrWrite{Node: gedlib.NodeID(node), Attr: gedlib.Attr(attr), Value: val})
		}
		if r.err != nil {
			return tr, r.err
		}
		tr.Delta, tr.Names, tr.Version = d, names, d.ToVersion
		return tr, nil
	case recRules:
		version := r.uvarint()
		src := r.str()
		if r.err != nil {
			return tr, r.err
		}
		tr.Rules, tr.Version = &src, version
		return tr, nil
	case recEpoch:
		version := r.uvarint()
		if r.err != nil {
			return tr, r.err
		}
		tr.EpochBump, tr.Version = true, version
		return tr, nil
	default:
		return tr, fmt.Errorf("persist: unknown WAL record kind %d", kind)
	}
}
