package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// buildDemo constructs a small graph exercising every snapshot feature:
// multiple labels, parallel edges under distinct labels, a wildcard
// edge label, attributes, and an isolated node.
func buildDemo() *Graph {
	g := New()
	a := g.AddNodeAttrs("person", map[Attr]Value{"name": String("ada"), "age": Int(36)})
	b := g.AddNodeAttrs("person", map[Attr]Value{"name": String("bob")})
	c := g.AddNodeAttrs("city", map[Attr]Value{"name": String("paris")})
	d := g.AddNode("person")
	g.AddEdge(a, "knows", b)
	g.AddEdge(a, "lives_in", c)
	g.AddEdge(b, "lives_in", c)
	g.AddEdge(a, Wildcard, c)
	g.AddEdge(b, "knows", a)
	_ = d
	return g
}

func sortedIDs(ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDSet(a, b []NodeID) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotMirrorsGraph(t *testing.T) {
	g := buildDemo()
	s := g.Freeze()

	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() || s.Size() != g.Size() {
		t.Fatalf("sizes: snapshot (%d,%d) vs graph (%d,%d)",
			s.NumNodes(), s.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, id := range g.Nodes() {
		if s.Label(id) != g.Label(id) {
			t.Errorf("label of n%d: %s vs %s", id, s.Label(id), g.Label(id))
		}
		for _, a := range []Attr{"name", "age", "zz"} {
			gv, gok := g.Attr(id, a)
			sv, sok := s.Attr(id, a)
			if gok != sok || (gok && !gv.Equal(sv)) {
				t.Errorf("attr %s of n%d: (%v,%v) vs (%v,%v)", a, id, sv, sok, gv, gok)
			}
		}
	}
	for _, l := range []Label{"person", "city", "ghost", Wildcard} {
		if !sameIDSet(s.CandidateNodes(l), g.CandidateNodes(l)) {
			t.Errorf("CandidateNodes(%s) differ", l)
		}
		if !sameIDSet(s.NodesWithLabel(l), g.NodesWithLabel(l)) {
			t.Errorf("NodesWithLabel(%s) differ", l)
		}
	}
}

func TestSnapshotEdgesAndNeighbors(t *testing.T) {
	g := buildDemo()
	s := g.Freeze()
	n := g.NumNodes()
	labels := []Label{"knows", "lives_in", "ghost", Wildcard}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			for _, l := range labels {
				if got, want := s.HasEdge(NodeID(src), l, NodeID(dst)), g.HasEdge(NodeID(src), l, NodeID(dst)); got != want {
					t.Errorf("HasEdge(n%d,%s,n%d) = %v, want %v", src, l, dst, got, want)
				}
			}
			if got, want := s.HasAnyEdge(NodeID(src), NodeID(dst)), g.HasAnyEdge(NodeID(src), NodeID(dst)); got != want {
				t.Errorf("HasAnyEdge(n%d,n%d) = %v, want %v", src, dst, got, want)
			}
		}
		for _, l := range labels {
			if !sameIDSet(s.OutNeighbors(NodeID(src), l), g.OutNeighbors(NodeID(src), l)) {
				t.Errorf("OutNeighbors(n%d,%s) differ: %v vs %v",
					src, l, s.OutNeighbors(NodeID(src), l), g.OutNeighbors(NodeID(src), l))
			}
			if !sameIDSet(s.InNeighbors(NodeID(src), l), g.InNeighbors(NodeID(src), l)) {
				t.Errorf("InNeighbors(n%d,%s) differ", src, l)
			}
		}
		if s.OutDegree(NodeID(src)) != len(g.Out(NodeID(src))) || s.InDegree(NodeID(src)) != len(g.In(NodeID(src))) {
			t.Errorf("degrees of n%d differ", src)
		}
	}
	// A concrete pattern label must NOT see the wildcard-labeled host
	// edge a -_-> c (⪯ is asymmetric), but the wildcard must.
	if s.HasEdge(0, "knows", 2) {
		t.Error("concrete label matched a wildcard host edge")
	}
	if !s.HasAnyEdge(0, 2) {
		t.Error("wildcard lookup missed the wildcard host edge")
	}
}

func TestSnapshotFoldedAttrIndex(t *testing.T) {
	g := buildDemo()
	s := g.Freeze()
	cases := []struct {
		a Attr
		v Value
	}{
		{"name", String("ada")}, {"name", String("paris")}, {"age", Int(36)},
		{"name", String("nobody")}, {"zz", Int(1)},
	}
	for _, c := range cases {
		want := attrFilter(g, c.a, c.v)
		got := s.Lookup(c.a, c.v)
		if !sameIDSet(got, want) {
			t.Errorf("Lookup(%s,%v) = %v, want %v", c.a, c.v, got, want)
		}
	}
	if !s.HasAttr("name") || s.HasAttr("zz") {
		t.Error("HasAttr wrong")
	}
}

func TestSnapshotDegreeStats(t *testing.T) {
	g := buildDemo()
	s := g.Freeze()
	// person nodes: n0 (deg 4+1... count explicitly below), n1, n3.
	total := 0
	for _, id := range g.NodesWithLabel("person") {
		total += len(g.Out(id)) + len(g.In(id))
	}
	want := float64(total) / 3
	if got := s.LabelAvgDegree("person"); got != want {
		t.Errorf("LabelAvgDegree(person) = %v, want %v", got, want)
	}
	if s.LabelAvgDegree("ghost") != 0 {
		t.Error("unknown label must have zero average degree")
	}
	if s.LabelCount("person") != 3 || s.LabelCount(Wildcard) != g.NumNodes() {
		t.Error("LabelCount wrong")
	}
}

func TestSnapshotStaleness(t *testing.T) {
	g := buildDemo()
	v0 := g.Version()
	s := g.Freeze()
	if s.SourceVersion() != v0 {
		t.Fatal("snapshot must record the freeze-time version")
	}
	g.SetAttr(0, "age", Int(37))
	if g.Version() == v0 {
		t.Fatal("SetAttr must bump the version")
	}
	// The snapshot still reflects the old state.
	if v, _ := s.Attr(0, "age"); !v.Equal(Int(36)) {
		t.Error("snapshot leaked a post-freeze mutation")
	}
	n0 := g.Version()
	g.AddNode("person")
	g.AddEdge(0, "knows", 3)
	if g.Version() != n0+2 {
		t.Error("AddNode/AddEdge must each bump the version")
	}
	// Idempotent duplicate edge insertion does not mutate.
	n1 := g.Version()
	g.AddEdge(0, "knows", 3)
	if g.Version() != n1 {
		t.Error("duplicate AddEdge must not bump the version")
	}
}

// TestSnapshotRandomEquivalence cross-checks every read API on random
// graphs, including empty ones.
func TestSnapshotRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	labels := []Label{"a", "b", "c", Wildcard}
	elabels := []Label{"e", "f", Wildcard}
	attrs := []Attr{"p", "q"}
	for trial := 0; trial < 50; trial++ {
		g := New()
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			id := g.AddNode(labels[rng.Intn(len(labels))])
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					g.SetAttr(id, a, Int(rng.Intn(3)))
				}
			}
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), elabels[rng.Intn(len(elabels))], NodeID(rng.Intn(n)))
		}
		s := g.Freeze()
		if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: size mismatch", trial)
		}
		for i := 0; i < n; i++ {
			id := NodeID(i)
			if s.Label(id) != g.Label(id) {
				t.Fatalf("trial %d: label mismatch at n%d", trial, i)
			}
			for _, a := range attrs {
				gv, gok := g.Attr(id, a)
				sv, sok := s.Attr(id, a)
				if gok != sok || (gok && !gv.Equal(sv)) {
					t.Fatalf("trial %d: attr mismatch at n%d.%s", trial, i, a)
				}
			}
			for _, l := range elabels {
				if !sameIDSet(s.OutNeighbors(id, l), g.OutNeighbors(id, l)) {
					t.Fatalf("trial %d: out neighbors differ at n%d via %s", trial, i, l)
				}
				if !sameIDSet(s.InNeighbors(id, l), g.InNeighbors(id, l)) {
					t.Fatalf("trial %d: in neighbors differ at n%d via %s", trial, i, l)
				}
				for j := 0; j < n; j++ {
					if s.HasEdge(id, l, NodeID(j)) != g.HasEdge(id, l, NodeID(j)) {
						t.Fatalf("trial %d: HasEdge differs", trial)
					}
				}
			}
		}
		for _, l := range labels {
			if !sameIDSet(s.CandidateNodes(l), g.CandidateNodes(l)) {
				t.Fatalf("trial %d: candidates differ for %s", trial, l)
			}
		}
		for _, a := range attrs {
			for v := 0; v < 3; v++ {
				if !sameIDSet(s.Lookup(a, Int(v)), attrFilter(g, a, Int(v))) {
					t.Fatalf("trial %d: postings differ for %s=%d", trial, a, v)
				}
			}
		}
	}
}

// TestSnapshotQuotientEquivalence: the quotient built straight from a
// snapshot reads exactly like the frozen graph one gets by merging the
// classes by hand — same labels, postings, adjacency runs, edge count
// and degree statistics — carries no attributes, reads its members'
// AttrTuple as Freeze stored them, and leaves the base snapshot alone.
func TestSnapshotQuotientEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	labels := []Label{"a", "b", Wildcard}
	elabels := []Label{"e", "f", Wildcard}
	for trial := 0; trial < 60; trial++ {
		g := New()
		n := rng.Intn(14)
		for i := 0; i < n; i++ {
			id := g.AddNode(labels[rng.Intn(len(labels))])
			if rng.Intn(2) == 0 {
				g.SetAttr(id, "p", Int(rng.Intn(3)))
			}
			if rng.Intn(3) == 0 {
				g.SetAttr(id, "q", Int(i))
			}
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), elabels[rng.Intn(len(elabels))], NodeID(rng.Intn(n)))
		}
		s := g.Freeze()
		for i := 0; i < n; i++ {
			keys, vals := s.AttrTuple(NodeID(i))
			if len(keys) != g.NumAttrs(NodeID(i)) {
				t.Fatalf("trial %d: n%d has %d stored attributes, its tuple %d", trial, i, g.NumAttrs(NodeID(i)), len(keys))
			}
			for j, k := range keys {
				if v, ok := g.Attr(NodeID(i), s.AttrSymbols()[k]); !ok || !v.Equal(vals[j]) || (j > 0 && keys[j-1] >= k) {
					t.Fatalf("trial %d: tuple of n%d reads %s=%s at %d", trial, i, s.AttrSymbols()[k], vals[j], j)
				}
			}
		}
		// A random partition, classes numbered by first member; a class
		// takes its first member's label.
		classes := 1 + rng.Intn(n+1)
		classOf := make([]NodeID, n)
		var classLabels []Label
		seen := map[int]NodeID{}
		for i := range classOf {
			c := rng.Intn(classes)
			if _, ok := seen[c]; !ok {
				seen[c] = NodeID(len(classLabels))
				classLabels = append(classLabels, g.Label(NodeID(i)))
			}
			classOf[i] = seen[c]
		}
		byHand := New()
		for _, l := range classLabels {
			byHand.AddNode(l)
		}
		for _, e := range g.Edges() {
			byHand.AddEdge(classOf[e.Src], e.Label, classOf[e.Dst])
		}
		want, got := byHand.Freeze(), s.Quotient(classOf, classLabels)
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: quotient has %d nodes and %d edges, want %d and %d",
				trial, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for c := range classLabels {
			id := NodeID(c)
			if got.Label(id) != want.Label(id) || got.OutDegree(id) != want.OutDegree(id) || got.InDegree(id) != want.InDegree(id) {
				t.Fatalf("trial %d: class %d differs in label or degree", trial, c)
			}
			if _, ok := got.Attr(id, "p"); ok {
				t.Fatalf("trial %d: class %d carries an attribute", trial, c)
			}
			for _, l := range elabels {
				if !sameIDSet(got.OutNeighbors(id, l), want.OutNeighbors(id, l)) || !sameIDSet(got.InNeighbors(id, l), want.InNeighbors(id, l)) {
					t.Fatalf("trial %d: neighbors of class %d via %s differ", trial, c, l)
				}
				for d := range classLabels {
					if got.HasEdge(id, l, NodeID(d)) != want.HasEdge(id, l, NodeID(d)) {
						t.Fatalf("trial %d: HasEdge(%d,%s,%d) differs", trial, c, l, d)
					}
				}
			}
		}
		for _, l := range labels {
			if !sameIDSet(got.CandidateNodes(l), want.CandidateNodes(l)) || got.LabelAvgDegree(l) != want.LabelAvgDegree(l) {
				t.Fatalf("trial %d: postings or degree statistics of %s differ", trial, l)
			}
		}
		if got.Lineage() == s.Lineage() || s.NumNodes() != n || s.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: the quotient disturbed its base", trial)
		}
	}
}

// TestSnapshotApplyAttrAllocsFlat: the attribute tuples a delta rewrites
// share two backing arrays, so writing k nodes' attributes costs the
// same allocations for every k, whether a write overwrites a value or
// inserts one (the nodes sit on one page, so page clones do not grow
// with k either).
func TestSnapshotApplyAttrAllocsFlat(t *testing.T) {
	allocs := func(k int) float64 {
		g := New()
		for i := 0; i < pageSize; i++ {
			g.AddNodeAttrs("person", map[Attr]Value{"name": Int(i), "age": Int(i)})
		}
		g.SetAttr(pageSize-1, "type", String("old"))
		snap := g.Freeze()
		for i := 0; i < k; i++ {
			g.SetAttr(NodeID(i), "age", Int(1000+i))    // overwritten in place
			g.SetAttr(NodeID(i), "type", String("new")) // inserted
		}
		d := g.DeltaSince(snap.SourceVersion())
		return testing.AllocsPerRun(20, func() { snap.Apply(d) })
	}
	few, many := allocs(4), allocs(60)
	if many > few {
		t.Fatalf("Snapshot.Apply allocates %.0f times writing 4 nodes' attributes but %.0f writing 60", few, many)
	}
	t.Logf("allocs: %.0f writing 4 nodes, %.0f writing 60", few, many)
}

// TestSnapshotPostingGrowsInPlace: a label posting gaining nodes grows
// in the backing array its lineage shares, so a chain of Applies copies
// it only when it runs out of room; a second child of the same parent
// cannot claim the same slots and copies instead, and every snapshot
// keeps reading exactly its own nodes.
func TestSnapshotPostingGrowsInPlace(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		g.AddNode("person")
	}
	addPerson := func(s *Snapshot) *Snapshot {
		n := s.NumNodes()
		return s.Apply(&Delta{FromVersion: s.SourceVersion(), ToVersion: s.SourceVersion() + 1,
			Nodes: []NodeAdd{{ID: NodeID(n), Label: "person"}}})
	}
	first := addPerson(g.Freeze())
	second := addPerson(first)
	sibling := addPerson(first)
	ids := func(s *Snapshot) []NodeID { return s.labelNodes[s.labelIDs["person"]] }
	if unsafe.SliceData(ids(second)) != unsafe.SliceData(ids(first)) {
		t.Fatal("the first child of a snapshot copied the posting instead of appending in place")
	}
	if unsafe.SliceData(ids(sibling)) == unsafe.SliceData(ids(first)) {
		t.Fatal("a second child of the same snapshot appended into the slots its sibling claimed")
	}
	for _, s := range []*Snapshot{first, second, sibling} {
		got := s.NodesWithLabel("person")
		if len(got) != s.NumNodes() || cap(got) != len(got) {
			t.Fatalf("posting of a %d-node snapshot has len %d cap %d", s.NumNodes(), len(got), cap(got))
		}
		for i, id := range got {
			if id != NodeID(i) {
				t.Fatalf("posting of a %d-node snapshot holds %v at %d", s.NumNodes(), id, i)
			}
		}
	}
}

// pageGraph builds the same n-node graph on every call: person nodes
// with a name, each linked to a few others, so every page of every
// per-node table holds data.
func pageGraph(n int) *Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNodeAttrs("person", map[Attr]Value{"name": Int(i)})
	}
	for i := 0; i < 2*n; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), "knows", NodeID(rng.Intn(n)))
	}
	return g
}

// TestSnapshotApplySharesUntouchedPages: Apply clones a page of a
// per-node table only when the delta writes an entry on it, so every
// other page of each table is the parent's own page, pointer for
// pointer, and the parent reads back exactly as before.
func TestSnapshotApplySharesUntouchedPages(t *testing.T) {
	const n = 10*pageSize + 5
	g, pre := pageGraph(n), pageGraph(n)
	parent := g.Freeze()
	from := g.Version()
	g.AddEdge(2*pageSize+1, "knows", 5*pageSize+3) // out page 2, in page 5
	g.SetAttr(7*pageSize, "name", String("renamed"))
	fresh := g.AddNode("person") // the last, partial page
	g.AddEdge(fresh, "likes", pageSize+9)
	child := parent.Apply(g.DeltaSince(from))
	assertSnapshotsEqual(t, g.Freeze(), child, g)
	assertSnapshotsEqual(t, pre.Freeze(), parent, pre)

	last := n / pageSize
	for _, c := range []struct {
		name          string
		parent, child []unsafe.Pointer
		touched       []int
	}{
		{"nodeLabel", pagePointers(parent.nodeLabel), pagePointers(child.nodeLabel), []int{last}},
		{"out", pagePointers(parent.out), pagePointers(child.out), []int{2, last}},
		{"in", pagePointers(parent.in), pagePointers(child.in), []int{5, 1}},
		{"attr", pagePointers(parent.attr), pagePointers(child.attr), []int{7}},
	} {
		if len(c.child) != len(c.parent) {
			t.Fatalf("%s: %d pages after Apply, %d before", c.name, len(c.child), len(c.parent))
		}
		for p := range c.parent {
			shared := c.child[p] == c.parent[p]
			if touched := slices.Contains(c.touched, p); shared == touched {
				t.Errorf("%s page %d: shared %v, touched by the delta %v", c.name, p, shared, touched)
			}
		}
	}
}

func pagePointers[T any](pgs pages[T]) []unsafe.Pointer {
	out := make([]unsafe.Pointer, len(pgs))
	for p, pg := range pgs {
		out[p] = unsafe.Pointer(pg)
	}
	return out
}

// TestSnapshotApplySiblingPages: two children of one parent each add
// nodes onto the parent's last, partial page. Each clones that page for
// itself, so each reads back exactly its own nodes, labels, edges and
// attributes, and the parent still ends where it did.
func TestSnapshotApplySiblingPages(t *testing.T) {
	const n = pageSize + 10
	pre := pageGraph(n)
	parent := pre.Freeze()
	grow := func(label Label, k int) (*Graph, *Snapshot) {
		g := pageGraph(n)
		for i := 0; i < k; i++ {
			id := g.AddNodeAttrs(label, map[Attr]Value{"name": String(string(label))})
			g.AddEdge(id, "knows", NodeID(i))
			g.AddEdge(NodeID(i), "knows", id)
		}
		return g, parent.Apply(g.DeltaSince(pre.Version()))
	}
	ga, a := grow("a", 3)
	gb, b := grow("b", 40) // runs past the partial page onto a new one
	assertSnapshotsEqual(t, ga.Freeze(), a, ga)
	assertSnapshotsEqual(t, gb.Freeze(), b, gb)
	assertSnapshotsEqual(t, pre.Freeze(), parent, pre)
	if p := n / pageSize; a.nodeLabel[p] == parent.nodeLabel[p] || b.nodeLabel[p] == parent.nodeLabel[p] || a.nodeLabel[p] == b.nodeLabel[p] {
		t.Fatal("siblings share a page that both of them wrote")
	}
}

// TestSnapshotApplyOuterBytesPerPage: Apply copies the outer page table
// of each per-node table it writes, one 8-byte pointer per page, so its
// bytes grow with |V| by 8 bytes per page per table and by nothing else.
// The slope is taken between two graph sizes, which cancels what Apply
// allocates for the delta itself. The page counts make each copied
// table, with the allocator's 8-byte header, fill its size class
// exactly (383 pages: 3,072 B; 1,535 pages: 12,288 B), so the slope
// reads the tables' own bytes.
func TestSnapshotApplyOuterBytesPerPage(t *testing.T) {
	const runs = 32
	cost := func(pgs int) float64 {
		n := pgs*pageSize - runs - 8 // every added node lands on the last page
		g := pageGraph(n)
		identityIDs(n + runs) // grow the shared id table outside the measurement
		s := g.Freeze()
		v := g.Version()
		ds := make([]*Delta, runs)
		for r := range ds {
			// Each delta writes all four tables: a node label, an out
			// segment, an in segment and an attribute tuple.
			id := NodeID(n + r)
			ds[r] = &Delta{FromVersion: v, ToVersion: v + 4,
				Nodes: []NodeAdd{{ID: id, Label: "fresh"}},
				Edges: []Edge{{Src: id, Label: "knows", Dst: NodeID(r * 13 % n)}},
				Attrs: []AttrWrite{{Node: NodeID(r * 29 % n), Attr: "name", Value: Int(-r)}},
			}
			v += 4
		}
		_, bytes := applyCost(s, ds)
		return bytes
	}
	small, large := cost(383), cost(1535)
	if slope := (large - small) / (1535 - 383) / 4; slope > 8.25 {
		t.Fatalf("Snapshot.Apply allocates %.0f B at 383 pages and %.0f B at 1,535: %.2f B per page per table, want 8",
			small, large, slope)
	}
}
