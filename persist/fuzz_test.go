package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gedlib"
)

// encodeRecord is the inverse of decodeRecord: the encoder of the
// record's kind, fed the decoded fields.
func encodeRecord(tr TailRecord) []byte {
	ts := tr.AppendedAt.UnixNano()
	switch {
	case tr.Delta != nil:
		return encodeDelta(ts, tr.Epoch, tr.Delta, tr.Names)
	case tr.Rules != nil:
		return encodeRules(ts, tr.Epoch, tr.Version, *tr.Rules)
	default:
		return encodeEpochBump(ts, tr.Epoch, tr.Version)
	}
}

// FuzzDecodeRecord drives the WAL payload decoder with arbitrary bytes:
// it must never panic, and a payload it accepts must round-trip — the
// decoded record, encoded by its kind's encoder and decoded again, is
// the same record. Run with `go test -fuzz=FuzzDecodeRecord ./persist`
// to explore; the seed corpus (one record of each kind) runs under
// plain `go test`.
func FuzzDecodeRecord(f *testing.F) {
	d := &gedlib.Delta{FromVersion: 3, ToVersion: 5,
		Nodes: []gedlib.NodeAdd{{ID: 7, Label: "person"}, {ID: 8, Label: "city"}},
		Edges: []gedlib.GraphEdge{{Src: 7, Label: "lives_in", Dst: 8}},
		Attrs: []gedlib.AttrWrite{{Node: 7, Attr: "age", Value: gedlib.Int(41)}, {Node: 8, Attr: "name", Value: gedlib.String("Paris")}},
	}
	f.Add(encodeDelta(1700000000123, 2, d, []string{"alice", ""}))
	f.Add(encodeRules(1700000000456, 2, 5, "ged k on (x:a) { then x.b = 1 }"))
	f.Add(encodeEpochBump(-1, 3, 5))
	f.Fuzz(func(t *testing.T, payload []byte) {
		tr, err := decodeRecord(payload)
		if err != nil {
			return // rejection is fine; panics are not
		}
		enc := encodeRecord(tr)
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\n%+v", err, tr)
		}
		// Same record: every field, and the delta's rows by their
		// encoding (a NaN value is not equal to itself).
		if again.Version != tr.Version || again.Epoch != tr.Epoch || !again.AppendedAt.Equal(tr.AppendedAt) ||
			again.EpochBump != tr.EpochBump || !slices.Equal(again.Names, tr.Names) ||
			(again.Rules == nil) != (tr.Rules == nil) || again.Rules != nil && *again.Rules != *tr.Rules ||
			(again.Delta == nil) != (tr.Delta == nil) || !bytes.Equal(encodeRecord(again), enc) {
			t.Fatalf("round trip changed the record:\n%+v\n%+v", tr, again)
		}
	})
}

// FuzzLoadCheckpoint drives the checkpoint loader with arbitrary bytes
// written as a checkpoint file. The harness recomputes the header's CRC
// over the payload first, so mutations reach the section table, the
// string tables and ImportImage instead of stopping at the CRC check.
// The loader must never panic; a file it accepts must round-trip — its
// state, written as a checkpoint, loads back to the same state, and
// writing that again gives the same bytes. Inputs are as large as a
// small checkpoint, so the default minute of minimizing each new input
// stalls a short run: explore with `go test -fuzz=FuzzLoadCheckpoint
// -fuzzminimizetime=100x ./persist`. The seeds (a format-2 checkpoint
// of a random graph and its format-1 spelling) run under plain `go
// test`.
func FuzzLoadCheckpoint(f *testing.F) {
	g := gedlib.NewGraph()
	var names []string
	mutate(g, &names, rand.New(rand.NewSource(5)), 60)
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	v2, err := writeCheckpointBytes(s, dir, State{Graph: g, Names: names, Rules: "ged r on (x:person) { then x.age = 1 }"}, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v2, formatV1(v2)} {
		path := filepath.Join(dir, "seed.ged")
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			f.Fatal(err)
		}
		if _, _, _, err := s.loadCheckpoint(path); err != nil {
			f.Fatalf("seed rejected: %v", err)
		}
		f.Add(seed)
	}
	path := filepath.Join(dir, "in.ged")
	f.Fuzz(func(t *testing.T, data []byte) {
		fixCRC(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, epoch, err := s.loadCheckpoint(path)
		if err != nil {
			return // rejection is fine; panics are not
		}
		once, err := writeCheckpointBytes(s, dir, st, epoch)
		if err != nil {
			t.Fatalf("accepted state does not write back: %v", err)
		}
		if err := os.WriteFile(path, once, 0o644); err != nil {
			t.Fatal(err)
		}
		again, _, againEpoch, err := s.loadCheckpoint(path)
		if err != nil {
			t.Fatalf("written-back checkpoint rejected: %v", err)
		}
		if againEpoch != epoch || again.Rules != st.Rules || !slices.Equal(again.Names, st.Names) ||
			again.Graph.Version() != st.Graph.Version() || again.Graph.String() != st.Graph.String() {
			t.Fatalf("round trip changed the state:\n%s\n%s", st.Graph, again.Graph)
		}
		twice, err := writeCheckpointBytes(s, dir, again, againEpoch)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-export differs (err %v)", err)
		}
	})
}

// writeCheckpointBytes writes st as a checkpoint of the given epoch and
// returns the file's bytes.
func writeCheckpointBytes(s *Store, dir string, st State, epoch uint64) ([]byte, error) {
	tmp, _, err := s.writeTemp(dir, Cut{Snap: st.Graph.Freeze(), Names: st.Names, Rules: st.Rules}, epoch, false)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	return os.ReadFile(tmp)
}

// fixCRC rewrites a checkpoint header's CRC over the payload its header
// points at, when the header is long enough to name one.
func fixCRC(data []byte) {
	if len(data) < ckptHeaderBytesV1 {
		return
	}
	if start := binary.LittleEndian.Uint32(data[28:]); uint64(start) <= uint64(len(data)) {
		binary.LittleEndian.PutUint32(data[24:], crc32.ChecksumIEEE(data[start:]))
	}
}

// formatV1 respells a format-2 checkpoint in format 1: a 32-byte header
// without the epoch, every offset moved down with it.
func formatV1(v2 []byte) []byte {
	n := int(binary.LittleEndian.Uint32(v2[12:]))
	start := int(binary.LittleEndian.Uint32(v2[28:]))
	start1 := align8(ckptHeaderBytesV1 + ckptEntryBytes*n)
	shift := uint64(start - start1)
	out := make([]byte, start1, start1+len(v2)-start)
	copy(out, v2[:ckptHeaderBytesV1])
	binary.LittleEndian.PutUint32(out[8:], 1)
	binary.LittleEndian.PutUint32(out[28:], uint32(start1))
	for i := 0; i < n; i++ {
		e, e1 := ckptHeaderBytes+ckptEntryBytes*i, ckptHeaderBytesV1+ckptEntryBytes*i
		copy(out[e1:e1+ckptEntryBytes], v2[e:e+ckptEntryBytes])
		binary.LittleEndian.PutUint64(out[e1+8:], binary.LittleEndian.Uint64(v2[e+8:])-shift)
	}
	return append(out, v2[start:]...)
}
