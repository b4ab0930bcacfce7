package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gedlib"
	"gedlib/persist"
)

// writePathGraph is the graph the write-path pin starts from.
const writePathGraph = `{
	"nodes": [
		{"id": "acme", "label": "company", "attrs": {"name": "ACME"}},
		{"id": "zed", "label": "person", "attrs": {"name": "Zed", "type": "artist"}}
	],
	"edges": [{"src": "zed", "label": "works", "dst": "acme"}]
}`

// TestWritePathPinned pins what the write path persists for a fixed op
// script run through a durable catalog: every WAL record decoded (its
// versions, named nodes, edges and attribute writes, the writes sorted
// per node), every WriteResult, and the bytes of every checkpoint the
// run leaves. The script adds nodes with several attributes, adds one
// edge twice within a batch and again in a later batch, overwrites
// attributes, has one op of each kind rejected, registers rules and
// crosses a checkpoint. The expected output is
// testdata/writepath_pin.golden.
func TestWritePathPinned(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCatalog(Config{DataDir: dir, CheckpointEvery: 8, RetainCheckpoints: 8, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent, err := c.Create("pin", []byte(writePathGraph))
	if err != nil {
		t.Fatal(err)
	}
	// The tail starts where the log does: right after Create.
	start, err := c.store.Recover("pin")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var out strings.Builder
	write := func(step string, ops ...Op) {
		t.Helper()
		res, err := ent.Mutate(ctx, ops)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		fmt.Fprintf(&out, "%s: version=%d epoch=%d applied=%d checkpoint=%d\n",
			step, res.Version, res.Epoch, res.Applied, ent.ps.Load().Stats().CheckpointVersion)
		for _, e := range res.OpErrors {
			fmt.Fprintf(&out, "  op %d: %s\n", e.Index, e.Message)
		}
		// A background checkpoint this flush started is let finish, so
		// the next flush puts it in place.
		for {
			ent.mu.RLock()
			writing := ent.ckpt != nil && len(ent.ckpt) == 0
			ent.mu.RUnlock()
			if !writing {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	write("b1",
		Op{Op: "add_node", ID: "alice", Label: "person", Attrs: map[string]any{"name": "Alice", "age": 30.0, "vip": true, "city": "Oslo"}},
		Op{Op: "add_node", ID: "bob", Label: "person", Attrs: map[string]any{"name": "Bob", "type": "programmer"}},
		Op{Op: "add_edge", Src: "alice", Label: "works", Dst: "acme"},
		Op{Op: "add_edge", Src: "alice", Label: "works", Dst: "acme"},
		Op{Op: "add_edge", Src: "zed", Label: "works", Dst: "acme"},
		Op{Op: "add_edge", Src: "bob", Label: "knows", Dst: "alice"},
	)
	write("b2",
		Op{Op: "set_attr", ID: "alice", Attr: "age", Value: 31.0},
		Op{Op: "set_attr", ID: "bob", Attr: "name", Value: "Robert"},
		Op{Op: "set_attr", ID: "bob", Attr: "name", Value: "Rob"},
		Op{Op: "set_attr", ID: "zed", Attr: "type", Value: "programmer"},
		Op{Op: "add_edge", Src: "alice", Label: "works", Dst: "acme"},
		Op{Op: "add_node", ID: "carol", Label: "person", Attrs: map[string]any{"name": "Carol", "age": 41.0}},
		Op{Op: "set_attr", ID: "carol", Attr: "age", Value: 42.0},
		Op{Op: "add_edge", Src: "carol", Label: "knows", Dst: "bob"},
	)
	write("rejected",
		Op{Op: "add_node", Label: "person"},
		Op{Op: "add_node", ID: "alice", Label: "person"},
		Op{Op: "add_node", ID: "dave", Label: "person", Attrs: map[string]any{"tags": []any{"x"}}},
		Op{Op: "add_node", ID: "erin"},
		Op{Op: "add_edge", Src: "nobody", Label: "knows", Dst: "alice"},
		Op{Op: "add_edge", Src: "alice", Label: "knows", Dst: "nobody"},
		Op{Op: "add_edge", Src: "alice", Dst: "bob"},
		Op{Op: "set_attr", ID: "nobody", Attr: "age", Value: 1.0},
		Op{Op: "set_attr", ID: "alice", Value: 1.0},
		Op{Op: "set_attr", ID: "alice", Attr: "age"},
		Op{Op: "frobnicate"},
		Op{Op: "add_node", ID: "frank", Label: "person", Attrs: map[string]any{"name": "Frank"}},
	)
	if _, err := ent.RegisterRules(ctx, `ged r on (x:person) { then x.ok = 1 }`); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "rules: epoch=%d\n", ent.CurrentView().Epoch)
	write("b3",
		Op{Op: "set_attr", ID: "alice", Attr: "ok", Value: 1.0},
		Op{Op: "add_node", ID: "gus", Label: "person", Attrs: map[string]any{"ok": 1.0, "name": "Gus", "age": 7.0}},
		Op{Op: "add_edge", Src: "gus", Label: "knows", Dst: "carol"},
		Op{Op: "add_edge", Src: "gus", Label: "knows", Dst: "carol"},
	)
	write("b4",
		Op{Op: "add_edge", Src: "gus", Label: "knows", Dst: "carol"},
		Op{Op: "set_attr", ID: "gus", Attr: "ok", Value: false},
		Op{Op: "add_node", ID: "hal", Label: "robot", Attrs: map[string]any{"model": "9000"}},
	)
	write("b5", Op{Op: "set_attr", ID: "hal", Attr: "model", Value: "9001"})
	write("b6",
		Op{Op: "add_node", ID: "ivy", Label: "person", Attrs: map[string]any{"name": "Ivy", "vip": false}},
		Op{Op: "add_edge", Src: "ivy", Label: "knows", Dst: "gus"},
		Op{Op: "add_edge", Src: "gus", Label: "knows", Dst: "carol"},
	)
	write("b7", Op{Op: "set_attr", ID: "ivy", Attr: "vip", Value: true})

	// Every record the run logged, through a tail from the start.
	want := ent.ps.Load().Stats().WALRecords
	var recs []string
	errDone := errors.New("all records read")
	tctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err = c.store.Tail(tctx, "pin", start, time.Millisecond, func(tr persist.TailRecord) error {
		recs = append(recs, pinRecord(tr))
		if uint64(len(recs)) == want {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("tail read %d of %d records: %v", len(recs), want, err)
	}
	for i, r := range recs {
		fmt.Fprintf(&out, "record %d: %s", i+1, r)
	}

	c.Close()
	ckpts, err := filepath.Glob(filepath.Join(dir, "pin", "ckpt-*.ged"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ckpts)
	for _, p := range ckpts {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s sha256=%x\n", filepath.Base(p), sha256.Sum256(data))
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "writepath_pin.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(golden) {
		t.Fatalf("write path output differs from testdata/writepath_pin.golden:\n%s", got)
	}
}

// pinRecord renders one WAL record for the write-path pin, attribute
// writes sorted per node (a write's place among one node's other
// attributes carries no meaning; two writes of one attribute keep their
// order).
func pinRecord(tr persist.TailRecord) string {
	var b strings.Builder
	switch {
	case tr.EpochBump:
		fmt.Fprintf(&b, "epoch bump %d at %d\n", tr.Epoch, tr.Version)
	case tr.Rules != nil:
		fmt.Fprintf(&b, "rules at %d epoch %d: %q\n", tr.Version, tr.Epoch, *tr.Rules)
	case tr.Delta != nil:
		d := tr.Delta
		fmt.Fprintf(&b, "delta %d->%d epoch %d\n", d.FromVersion, d.ToVersion, tr.Epoch)
		for i, n := range d.Nodes {
			fmt.Fprintf(&b, "  node %d %s %q\n", n.ID, n.Label, tr.Names[i])
		}
		for _, e := range d.Edges {
			fmt.Fprintf(&b, "  edge %d -%s-> %d\n", e.Src, e.Label, e.Dst)
		}
		attrs := slices.Clone(d.Attrs)
		slices.SortStableFunc(attrs, func(x, y gedlib.AttrWrite) int {
			if x.Node != y.Node {
				return int(x.Node) - int(y.Node)
			}
			return strings.Compare(string(x.Attr), string(y.Attr))
		})
		for _, w := range attrs {
			fmt.Fprintf(&b, "  attr %d.%s = %s\n", w.Node, w.Attr, w.Value)
		}
	}
	return b.String()
}
