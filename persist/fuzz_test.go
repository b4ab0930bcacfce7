package persist

import (
	"bytes"
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
