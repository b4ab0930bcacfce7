package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"gedlib"
	"gedlib/persist"
	"gedlib/persist/fault"
)

// TestFailedWriteNeverVisible: a flush whose WAL append or sync fails
// changes nothing in memory, and persist drops its record. The writer
// gets a 5xx, the entry degrades, and a probe heals it; the batch's
// node, edges, attribute writes and name never show — not in the view,
// its violations or name resolution — and its id can be added again.
// Later writes are acked, and a crash copy recovers every acked write
// and no failed one, with no torn tail. A follower, which reads the
// log before the leader syncs it and so may apply the record whose
// sync fails, ends on the leader's state. Each fault runs twice: once in
// mid-segment and once as the first record of a segment a checkpoint
// rotation just opened, where the heal's checkpoint at the pre-batch
// version finds the failed record ahead of every later one.
func TestFailedWriteNeverVisible(t *testing.T) {
	faults := []struct {
		name string
		rule fault.Rule
	}{
		{"fsync", fault.Rule{Kind: "eio", Op: fault.OpSync, Path: "wal-", Err: syscall.EIO}},
		{"enospc", fault.Rule{Kind: "enospc", Op: fault.OpWrite, Path: "wal-", Err: syscall.ENOSPC, AfterBytes: 10}},
	}
	for _, f := range faults {
		for _, segStart := range []bool{false, true} {
			name := f.name
			if segStart {
				name += "-segment-start"
			}
			t.Run(name, func(t *testing.T) { failedWriteNeverVisible(t, f.rule, segStart) })
		}
	}
}

func failedWriteNeverVisible(t *testing.T, rule fault.Rule, segStart bool) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := fault.New(1, nil)
	cfg := Config{DataDir: dir, FS: ffs, MaxDelay: time.Millisecond, ProbeInterval: time.Hour, CheckpointEvery: 1000}
	if segStart {
		// The first write, of ten ops, cuts the WAL; the rest of the
		// run stays under the next cut, so no checkpoint covers the
		// segment the failed record opens.
		cfg.CheckpointEvery = 10
	}
	c, err := NewCatalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ent, err := c.Create("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ent.RegisterRules(ctx, `ged r on (x:person) { then x.ok = 1 }`); err != nil {
		t.Fatal(err)
	}
	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.Follow(ctx); err != nil {
		t.Fatal(err)
	}
	fent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	write := func(ops ...Op) WriteResult {
		t.Helper()
		res, err := ent.Mutate(ctx, ops)
		if err != nil || res.Applied != len(ops) {
			t.Fatalf("write: applied %d of %d, errors %v, err %v", res.Applied, len(ops), res.OpErrors, err)
		}
		return res
	}
	attrs := map[string]any{"phase": "acked"}
	for _, k := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"} {
		attrs[k] = k
	}
	res := write(Op{Op: "add_node", ID: "a", Label: "person", Attrs: attrs})
	if segStart {
		awaitWritten(t, c, res.Version)
		seg := filepath.Join(dir, "g", fmt.Sprintf("wal-%016x.log", res.Version))
		if st, err := os.Stat(seg); err != nil || st.Size() != 0 {
			t.Fatalf("no empty segment at version %d after the cut: %v", res.Version, err)
		}
	}
	before := ent.CurrentView()

	ffs.Inject(rule)
	_, err = ent.Mutate(ctx, []Op{
		{Op: "add_node", ID: "b", Label: "person", Attrs: map[string]any{"phase": "failed"}},
		{Op: "add_edge", Src: "a", Label: "knows", Dst: "b"},
		{Op: "add_edge", Src: "a", Label: "self", Dst: "a"},
		{Op: "set_attr", ID: "a", Attr: "phase", Value: "failed"},
	})
	if !errors.Is(err, ErrFlush) {
		t.Fatalf("write on a failing disk: err %v, want ErrFlush", err)
	}
	if h, _ := ent.Health(); h != "degraded" {
		t.Fatalf("health %q after the failed write, want degraded", h)
	}
	unchanged := func(when string) {
		t.Helper()
		v := ent.CurrentView()
		a, ok := v.Names.Resolve("a")
		if !ok {
			t.Fatalf("%s: a does not resolve", when)
		}
		if _, ok := v.Names.Resolve("b"); ok {
			t.Fatalf("%s: the failed write's node b resolves", when)
		}
		if phase, _ := v.Snap.Attr(a, "phase"); v.Version != before.Version || v.Snap.NumNodes() != 1 ||
			v.Snap.NumEdges() != 0 || phase.Str() != "acked" || len(v.Violations) != len(before.Violations) {
			t.Fatalf("%s: view at version %d with %d nodes, %d edges, a.phase %s, %d violations; want version %d, 1 node, no edge, acked, %d violations",
				when, v.Version, v.Snap.NumNodes(), v.Snap.NumEdges(), phase, len(v.Violations), before.Version, len(before.Violations))
		}
	}
	unchanged("degraded")
	if rule.Op == fault.OpSync {
		// The record is in the segment, only not synced: the follower
		// reads it and applies its five ops.
		deadline := time.Now().Add(5 * time.Second)
		for fent.CurrentView().Version != before.Version+5 {
			if time.Now().After(deadline) {
				t.Fatalf("follower at version %d never applied the unsynced record to %d", fent.CurrentView().Version, before.Version+5)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ffs.Heal()
	if err := ent.Probe(ctx); err != nil {
		t.Fatalf("probe on a healed disk: %v", err)
	}
	unchanged("healed")
	res = write(
		Op{Op: "add_node", ID: "b", Label: "person", Attrs: map[string]any{"phase": "retry"}},
		Op{Op: "add_edge", Src: "a", Label: "knows", Dst: "b"},
	)
	if res.Version != before.Version+3 {
		t.Fatalf("re-added b at version %d, want %d", res.Version, before.Version+3)
	}
	last := write(Op{Op: "set_attr", ID: "b", Attr: "ok", Value: 1.0}).Version
	awaitSameState(t, ent, fent)

	crash := t.TempDir()
	copyTree(t, dir, crash)
	store, err := persist.Open(crash, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Recover("g")
	if err != nil {
		t.Fatal(err)
	}
	g, names := rec.State.Graph, nameIndexFromDense(rec.State.Names).table(rec.State.Graph.NumNodes())
	if rec.TruncatedTail || g.Version() != last {
		t.Fatalf("crash copy recovered version %d (truncated tail %v), want %d with no torn tail", g.Version(), rec.TruncatedTail, last)
	}
	a, okA := names.Resolve("a")
	b, okB := names.Resolve("b")
	if !okA || !okB || g.NumNodes() != 2 {
		t.Fatalf("crash copy: a %v, b %v, %d nodes; want a and b, 2 nodes", okA, okB, g.NumNodes())
	}
	attr := func(id gedlib.NodeID, name gedlib.Attr) string {
		v, _ := g.Attr(id, name)
		return v.String()
	}
	if attr(a, "phase") != `"acked"` || attr(b, "phase") != `"retry"` || attr(b, "ok") != "1" ||
		!g.HasEdge(a, "knows", b) || g.HasEdge(a, "self", a) || g.NumEdges() != 1 {
		t.Fatalf("crash copy: a.phase %s, b.phase %s, b.ok %s, %d edges; want acked, retry, 1 and only a-knows->b",
			attr(a, "phase"), attr(b, "phase"), attr(b, "ok"), g.NumEdges())
	}
}

// awaitSameState waits for a follower's view to equal its leader's: the
// same version, graph, names and violations.
func awaitSameState(t *testing.T, leader, follower *GraphEntry) {
	t.Helper()
	want := viewState(t, leader.CurrentView())
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := viewState(t, follower.CurrentView())
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached the leader's state:\ngot  %s\nwant %s", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// viewState renders a view's version, graph, node names and violations.
func viewState(t *testing.T, v *View) string {
	t.Helper()
	g, err := gedlib.ImportImage(v.Snap.Image(nil))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("version %d: %s names %q violations %v", v.Version, g, nameDump(t, v), renderViolations(v, v.Violations))
}
