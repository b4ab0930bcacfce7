package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// applyRandomOps drives rng-chosen mutations against g and returns how
// many ops ran. Labels/attrs are drawn from small pools plus an
// occasional fresh symbol, so deltas exercise both the shared and the
// cloned symbol-table paths.
func applyRandomOps(g *Graph, rng *rand.Rand, nOps int) {
	labels := []Label{"person", "city", "product", Wildcard}
	elabels := []Label{"knows", "lives_in", "likes", Wildcard}
	attrs := []Attr{"name", "age", "type"}
	for i := 0; i < nOps; i++ {
		switch k := rng.Intn(10); {
		case k < 2 || g.NumNodes() == 0:
			l := labels[rng.Intn(len(labels))]
			if rng.Intn(8) == 0 {
				l = Label(fmt.Sprintf("fresh%d", rng.Intn(50)))
			}
			g.AddNode(l)
		case k < 7:
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			l := elabels[rng.Intn(len(elabels))]
			if rng.Intn(10) == 0 {
				l = Label(fmt.Sprintf("efresh%d", rng.Intn(20)))
			}
			g.AddEdge(src, l, dst)
		default:
			id := NodeID(rng.Intn(g.NumNodes()))
			a := attrs[rng.Intn(len(attrs))]
			if rng.Intn(10) == 0 {
				a = Attr(fmt.Sprintf("afresh%d", rng.Intn(10)))
			}
			if rng.Intn(2) == 0 {
				g.SetAttr(id, a, Int(rng.Intn(5)))
			} else {
				g.SetAttr(id, a, String(fmt.Sprintf("v%d", rng.Intn(5))))
			}
		}
	}
}

// assertSnapshotsEqual compares two snapshots through every read API.
func assertSnapshotsEqual(t *testing.T, want, got *Snapshot, g *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("sizes: got (%d,%d), want (%d,%d)",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.SourceVersion() != g.Version() {
		t.Fatalf("version: got %d, want %d", got.SourceVersion(), g.Version())
	}
	if len(got.Nodes()) != len(want.Nodes()) {
		t.Fatalf("Nodes length: got %d, want %d", len(got.Nodes()), len(want.Nodes()))
	}
	// Collect every label/attr mentioned anywhere, plus ghosts.
	labelSet := map[Label]bool{Wildcard: true, "ghost": true}
	attrSet := map[Attr]bool{"zz": true}
	for _, id := range g.Nodes() {
		labelSet[g.Label(id)] = true
		for a := range g.Attrs(id) {
			attrSet[a] = true
		}
	}
	for _, e := range g.Edges() {
		labelSet[e.Label] = true
	}
	for _, id := range want.Nodes() {
		if got.Label(id) != want.Label(id) {
			t.Fatalf("label of n%d: got %s, want %s", id, got.Label(id), want.Label(id))
		}
		if got.OutDegree(id) != want.OutDegree(id) || got.InDegree(id) != want.InDegree(id) {
			t.Fatalf("degree of n%d: got (%d,%d), want (%d,%d)", id,
				got.OutDegree(id), got.InDegree(id), want.OutDegree(id), want.InDegree(id))
		}
		for a := range attrSet {
			wv, wok := want.Attr(id, a)
			gv, gok := got.Attr(id, a)
			if wok != gok || (wok && !wv.Equal(gv)) {
				t.Fatalf("attr %s of n%d: got (%v,%v), want (%v,%v)", a, id, gv, gok, wv, wok)
			}
		}
		for l := range labelSet {
			if !sameIDSet(got.OutNeighbors(id, l), want.OutNeighbors(id, l)) {
				t.Fatalf("OutNeighbors(n%d,%s) differ: got %v, want %v",
					id, l, got.OutNeighbors(id, l), want.OutNeighbors(id, l))
			}
			if !sameIDSet(got.InNeighbors(id, l), want.InNeighbors(id, l)) {
				t.Fatalf("InNeighbors(n%d,%s) differ", id, l)
			}
		}
	}
	for l := range labelSet {
		if !sameIDSet(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			t.Fatalf("NodesWithLabel(%s): got %v, want %v", l, got.NodesWithLabel(l), want.NodesWithLabel(l))
		}
		if got.LabelAvgDegree(l) != want.LabelAvgDegree(l) {
			t.Fatalf("LabelAvgDegree(%s): got %v, want %v", l, got.LabelAvgDegree(l), want.LabelAvgDegree(l))
		}
	}
	for _, e := range g.Edges() {
		if !got.HasEdge(e.Src, e.Label, e.Dst) {
			t.Fatalf("missing edge %v", e)
		}
		if !got.HasAnyEdge(e.Src, e.Dst) {
			t.Fatalf("missing any-edge %d->%d", e.Src, e.Dst)
		}
	}
	// The folded-in attribute index must agree too.
	for a := range attrSet {
		for _, v := range []Value{Int(0), Int(1), Int(2), String("v0"), String("v1")} {
			if !sameIDSet(got.Lookup(a, v), want.Lookup(a, v)) {
				t.Fatalf("Lookup(%s,%v): got %v, want %v", a, v, got.Lookup(a, v), want.Lookup(a, v))
			}
		}
	}
}

// TestSnapshotApplyEquivalentToFreeze drives a random mutation stream
// and, after every batch, checks that the delta-maintained snapshot is
// indistinguishable from a fresh Freeze of the mutated graph.
func TestSnapshotApplyEquivalentToFreeze(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		applyRandomOps(g, rng, 5+rng.Intn(30))
		snap := g.Freeze()
		for batch := 0; batch < 6; batch++ {
			from := g.Version()
			applyRandomOps(g, rng, rng.Intn(12))
			snap = snap.Apply(g.DeltaSince(from))
			assertSnapshotsEqual(t, g.Freeze(), snap, g)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotApplySharing checks the copy-on-write contract: applying
// a delta must not disturb the parent snapshot, and an empty delta
// returns the receiver.
func TestSnapshotApplySharing(t *testing.T) {
	g := New()
	applyRandomOps(g, rand.New(rand.NewSource(7)), 200)
	parent := g.Freeze()
	want := g.Freeze() // reference copy of the pre-delta state

	if got := parent.Apply(g.DeltaSince(g.Version())); got != parent {
		t.Fatal("empty delta must return the receiver")
	}

	from := g.Version()
	applyRandomOps(g, rand.New(rand.NewSource(8)), 50)
	child := parent.Apply(g.DeltaSince(from))
	assertSnapshotsEqual(t, g.Freeze(), child, g)
	if child.Lineage() != parent.Lineage() {
		t.Fatal("Apply must preserve lineage")
	}

	// The parent must still mirror the pre-delta graph exactly.
	pre := New()
	rng := rand.New(rand.NewSource(7))
	applyRandomOps(pre, rng, 200)
	assertSnapshotsEqual(t, want, parent, pre)
}

// TestJournalTrim: attribute overwrites must not grow graph memory
// without bound — the journal trims, DeltaSince answers nil for
// versions older than the retained history, and recent versions keep
// replaying exactly.
func TestJournalTrim(t *testing.T) {
	g := New()
	for i := 0; i < 20000; i++ {
		g.AddNode("b")
	}
	id := g.AddNode("a")
	v0 := g.Version()
	for i := 0; i < 200000; i++ {
		g.SetAttr(id, "p", Int(i%7))
	}
	if n, limit := len(g.journal), 2*(journalSlack+CatchUpBound(g.Size())); n > limit {
		t.Fatalf("journal not trimmed: %d ops for a size-%d graph, bound %d", n, g.Size(), limit)
	}
	if n, keep := len(g.journal), journalSlack+CatchUpBound(g.Size()); n < keep {
		t.Fatalf("journal trimmed too far: %d ops for a size-%d graph, keeps at least %d", n, g.Size(), keep)
	}
	if d := g.DeltaSince(v0); d != nil {
		t.Fatal("DeltaSince must refuse versions older than the trimmed journal")
	}
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "nil delta") {
				t.Errorf("Snapshot.Apply of the trimmed history: panic %v, want a nil-delta panic", p)
			}
		}()
		New().Freeze().Apply(g.DeltaSince(v0))
	}()
	// A recent version still replays, and Apply over it matches Freeze.
	vRecent := g.Version()
	g.SetAttr(id, "p", Int(42))
	g.SetAttr(id, "q", String("x"))
	d := g.DeltaSince(vRecent)
	if d == nil || len(d.Attrs) != 2 {
		t.Fatalf("recent delta not replayable: %+v", d)
	}
	base := g.Freeze()
	from := g.Version()
	g.SetAttr(id, "p", Int(43))
	got := base.Apply(g.DeltaSince(from))
	if v, ok := got.Attr(id, "p"); !ok || !v.Equal(Int(43)) {
		t.Fatalf("post-trim Apply lost the write: %v %v", v, ok)
	}
}

// TestJournalTrimKeepsArray: a trim keeps the journal's array, so the
// appends between two trims never reallocate it — and the ops the trim
// kept are the newest ones, in order.
func TestJournalTrimKeepsArray(t *testing.T) {
	g := New()
	id := g.AddNode("a")
	var arr *op
	trims, base := 0, g.journalBase
	for i := 0; trims < 4; i++ {
		g.SetAttr(id, "p", Int(i))
		if g.journalBase != base {
			trims, base = trims+1, g.journalBase
			if last := g.journal[len(g.journal)-1]; last.val != Int(i) {
				t.Fatalf("trim %d: newest op sets %v, want %d", trims, last.val, i)
			}
			if first := g.journal[0]; first.val != Int(i-len(g.journal)+1) {
				t.Fatalf("trim %d: oldest kept op sets %v, want %d", trims, first.val, i-len(g.journal)+1)
			}
			if trims == 1 {
				arr = &g.journal[0]
			}
		}
		if arr != nil && &g.journal[0] != arr {
			t.Fatalf("op %d after trim %d reallocated the journal", i, trims)
		}
	}
}

// TestJournalKeepsCatchUpBound: under a long random op stream that
// trims the journal again and again, every lag within CatchUpBound
// still replays, and replays exactly — an image cut at the older version
// plus the delta is the graph now.
func TestJournalKeepsCatchUpBound(t *testing.T) {
	// A small graph, where the slack decides what is kept, and graphs
	// large enough that CatchUpBound does.
	for _, c := range []struct {
		seed          int64
		build, stream int
	}{{1, 4000, 60000}, {2, 60000, 120000}} {
		seed := c.seed
		rng := rand.New(rand.NewSource(seed))
		g := New()
		applyRandomOps(g, rng, c.build)
		type cut struct {
			version uint64
			img     *Image
		}
		var cuts []cut
		trims := 0
		for i := 0; i < c.stream; i++ {
			base := g.journalBase
			if rng.Intn(4) == 0 {
				applyRandomOps(g, rng, 1)
			} else {
				g.SetAttr(NodeID(rng.Intn(g.NumNodes())), "hot", Int(rng.Intn(100)))
			}
			if g.journalBase != base {
				trims++
			}
			if lag := uint64(CatchUpBound(g.Size())); g.Version()-lag < g.journalBase {
				t.Fatalf("seed %d op %d: journal reaches back %d ops, CatchUpBound is %d",
					seed, i, g.Version()-g.journalBase, lag)
			}
			if i >= c.stream-2000 && i%400 == 0 {
				cuts = append(cuts, cut{g.Version(), ImageOf(g)})
			}
		}
		if trims < 5 {
			t.Fatalf("seed %d: only %d trims, the stream must exercise the bound", seed, trims)
		}
		replayed, want := 0, ImageOf(g)
		for _, c := range cuts {
			lag := g.Version() - c.version
			if lag > uint64(CatchUpBound(g.Size())) {
				continue
			}
			d := g.DeltaSince(c.version)
			if d == nil || uint64(d.Size()) != lag {
				t.Fatalf("seed %d: lag %d within the bound does not replay (%v)", seed, lag, d)
			}
			h, err := FromImage(c.img)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ImageOf(h), want) {
				t.Fatalf("seed %d: lag %d replays to a different graph", seed, lag)
			}
			replayed++
		}
		if replayed == 0 {
			t.Fatalf("seed %d: no cut fell within the bound", seed)
		}
	}
}

// TestDeltaSince checks journal capture and TouchedNodes.
func TestDeltaSince(t *testing.T) {
	g := New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	v0 := g.Version()
	c := g.AddNode("city")
	g.AddEdge(a, "lives_in", c)
	g.SetAttr(b, "name", String("bob"))
	d := g.DeltaSince(v0)
	if d.FromVersion != v0 || d.ToVersion != g.Version() {
		t.Fatalf("versions: %d..%d, want %d..%d", d.FromVersion, d.ToVersion, v0, g.Version())
	}
	if len(d.Nodes) != 1 || d.Nodes[0].ID != c || d.Nodes[0].Label != "city" {
		t.Fatalf("nodes: %+v", d.Nodes)
	}
	if len(d.Edges) != 1 || len(d.Attrs) != 1 || d.Size() != 3 {
		t.Fatalf("delta: %+v", d)
	}
	touched := d.TouchedNodes()
	if !sameIDSet(touched, []NodeID{a, b, c}) {
		t.Fatalf("touched: %v", touched)
	}
	if !g.DeltaSince(g.Version()).Empty() {
		t.Fatal("delta at head must be empty")
	}
}
