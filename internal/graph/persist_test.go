package graph

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// assertGraphsEqual compares two graphs structurally (String renders
// deterministically) and by version counter.
func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.String() != want.String() {
		t.Fatalf("graphs differ:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if got.Version() != want.Version() {
		t.Fatalf("version: got %d, want %d", got.Version(), want.Version())
	}
}

// TestDeltaSinceEmptySuffix: the delta from the current version is the
// empty delta, and applying it is a no-op that does not tick anything.
func TestDeltaSinceEmptySuffix(t *testing.T) {
	g := New()
	applyRandomOps(g, rand.New(rand.NewSource(3)), 60)
	d := g.DeltaSince(g.Version())
	if d == nil || !d.Empty() || d.Size() != 0 {
		t.Fatalf("delta at head must be empty, got %+v", d)
	}
	if d.FromVersion != g.Version() || d.ToVersion != g.Version() {
		t.Fatalf("empty delta versions: %d..%d, want %d..%d", d.FromVersion, d.ToVersion, g.Version(), g.Version())
	}
	v := g.Version()
	if err := g.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v {
		t.Fatalf("empty ApplyDelta ticked the version: %d -> %d", v, g.Version())
	}
}

// TestDeltaSinceFullReplay: DeltaSince(0) of an untrimmed graph is its
// whole history — replaying it onto a fresh graph reconstructs the
// original exactly. This is the WAL's "recover with no checkpoint"
// contract.
func TestDeltaSinceFullReplay(t *testing.T) {
	f := func(seed int64) bool {
		g := New()
		applyRandomOps(g, rand.New(rand.NewSource(seed)), 120)
		d := g.DeltaSince(0)
		if d == nil {
			t.Fatal("journal trimmed unexpectedly on a small graph")
		}
		fresh := New()
		if err := fresh.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, g, fresh)
		assertSnapshotsEqual(t, g.Freeze(), fresh.Freeze(), g)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaComposition: replaying DeltaSince(a)→b then DeltaSince(b)→head
// lands on the same graph as replaying DeltaSince(a)→head once. Deltas
// compose — the property that lets a WAL be cut into per-flush records.
func TestDeltaComposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		applyRandomOps(g, rng, 40)
		a := g.Version()
		base := New() // replica of g as of version a
		if err := base.ApplyDelta(g.DeltaSince(0)); err != nil {
			t.Fatal(err)
		}
		applyRandomOps(g, rng, 25)
		b := g.Version()
		d1 := g.DeltaSince(a) // a..b, captured while head == b
		applyRandomOps(g, rng, 25)
		d2 := g.DeltaSince(b)  // b..head
		dAB := g.DeltaSince(a) // a..head in one delta
		if d1 == nil || d2 == nil || dAB == nil {
			t.Fatal("journal trimmed unexpectedly")
		}

		// Path 1: one composite delta.
		once := New()
		if err := once.ApplyDelta(base.DeltaSince(0)); err != nil {
			t.Fatal(err)
		}
		if err := once.ApplyDelta(dAB); err != nil {
			t.Fatal(err)
		}
		// Path 2: the same history in two chunks.
		twice := New()
		if err := twice.ApplyDelta(base.DeltaSince(0)); err != nil {
			t.Fatal(err)
		}
		if err := twice.ApplyDelta(d1); err != nil {
			t.Fatal(err)
		}
		if err := twice.ApplyDelta(d2); err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, once, twice)
		assertGraphsEqual(t, g, once)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeltaResyncsVersionOnDup: a delta containing an edge the
// receiver already has (AddEdge is idempotent and does not tick the
// version) must still land the receiver on ToVersion, and the receiver
// must refuse to serve deltas across the resync.
func TestApplyDeltaResyncsVersionOnDup(t *testing.T) {
	g := New()
	a := g.AddNode("x")
	b := g.AddNode("x")
	g.AddEdge(a, "e", b) // the delta below re-adds this edge
	v := g.Version()

	// A producer that ticked twice for the same logical state: its edge
	// add was not a dup over there, but it is here, so the local replay
	// falls one tick short of ToVersion and must resync.
	d := &Delta{
		FromVersion: v,
		ToVersion:   v + 2,
		Edges:       []Edge{{Src: a, Label: "e", Dst: b}},
		Attrs:       []AttrWrite{{Node: b, Attr: "q", Value: Int(2)}},
	}
	if err := g.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if g.Version() != d.ToVersion {
		t.Fatalf("version not resynced: %d, want %d", g.Version(), d.ToVersion)
	}
	// After a resync the local journal is dropped: deltas from versions
	// before the resync must answer nil, not mis-sliced history.
	if got := g.DeltaSince(v); got != nil {
		t.Fatalf("DeltaSince across a resync must be nil, got %+v", got)
	}
	// And the replica keeps composing: the next delta from ToVersion
	// applies cleanly.
	d2 := &Delta{
		FromVersion: d.ToVersion,
		ToVersion:   d.ToVersion + 1,
		Attrs:       []AttrWrite{{Node: a, Attr: "r", Value: String("s")}},
	}
	if err := g.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if val, ok := g.Attr(a, "r"); !ok || !val.Equal(String("s")) {
		t.Fatalf("post-resync delta lost the write: %v %v", val, ok)
	}
}

// TestApplyDeltaRejects: version mismatches and out-of-range references
// error without mutating the receiver.
func TestApplyDeltaRejects(t *testing.T) {
	g := New()
	g.AddNode("x")
	before := g.String()
	v := g.Version()

	cases := []*Delta{
		{FromVersion: v + 5, ToVersion: v + 6, Nodes: []NodeAdd{{ID: 1, Label: "x"}}},
		{FromVersion: v, ToVersion: v + 1, Nodes: []NodeAdd{{ID: 7, Label: "x"}}},
		{FromVersion: v, ToVersion: v + 1, Edges: []Edge{{Src: 0, Label: "e", Dst: 9}}},
		{FromVersion: v, ToVersion: v + 1, Attrs: []AttrWrite{{Node: 9, Attr: "a", Value: Int(1)}}},
	}
	for i, d := range cases {
		if err := g.ApplyDelta(d); err == nil {
			t.Fatalf("case %d: bad delta accepted", i)
		}
		if g.String() != before || g.Version() != v {
			t.Fatalf("case %d: rejected delta mutated the graph", i)
		}
	}
}

// TestImageRoundTrip: FromImage(ImageOf(g)) == g for random graphs,
// including the version counter and delta composability afterwards.
func TestImageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		applyRandomOps(g, rng, 10+rng.Intn(150))
		img := ImageOf(g)
		got, err := FromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, g, got)
		assertSnapshotsEqual(t, g.Freeze(), got.Freeze(), g)

		// The restored graph journals from the image's version: deltas
		// produced by the original after the export apply cleanly.
		from := g.Version()
		applyRandomOps(g, rng, 20)
		if d := g.DeltaSince(from); d != nil {
			if err := got.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			assertGraphsEqual(t, g, got)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotImageDifferential: the snapshot exporter and ImageOf agree
// row for row on random graphs, for a frozen snapshot and for one
// advanced by Apply through random deltas (fresh labels and attribute
// names among them, interned in delta order rather than Freeze's).
func TestSnapshotImageDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		applyRandomOps(g, rng, 1+rng.Intn(40))
		snap := g.Freeze()
		for step := 0; step < 6; step++ {
			applyRandomOps(g, rng, rng.Intn(60))
			snap = snap.Apply(g.DeltaSince(snap.SourceVersion()))
			if want := ImageOf(g); !reflect.DeepEqual(snap.Image(nil), want) || !reflect.DeepEqual(g.Freeze().Image(nil), want) {
				t.Errorf("seed %d step %d: snapshot image differs from ImageOf", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestImageValidate: corrupted images error rather than panic.
func TestImageValidate(t *testing.T) {
	g := New()
	id := g.AddNode("x")
	g.SetAttr(id, "a", String("s"))
	g.AddEdge(id, "e", id)

	corrupt := []func(img *Image){
		func(img *Image) { img.NodeLabel[0] = 99 },
		func(img *Image) { img.EdgeDst[0] = 99 },
		func(img *Image) { img.EdgeLabel[0] = 99 },
		func(img *Image) { img.AttrNode[0] = 99 },
		func(img *Image) { img.AttrName[0] = 99 },
		func(img *Image) { img.AttrKind[0] = 7 },
		func(img *Image) { img.AttrVal[0] = 99 }, // string index out of range
		func(img *Image) { img.EdgeSrc = img.EdgeSrc[:0] },
		func(img *Image) { img.AttrVal = img.AttrVal[:0] },
	}
	for i, mutate := range corrupt {
		img := ImageOf(g)
		mutate(img)
		if _, err := FromImage(img); err == nil {
			t.Fatalf("case %d: corrupted image accepted", i)
		}
	}
}

// TestImageOfAllocsFlat: the export allocates per column and per symbol,
// never per node. Over a fixed vocabulary the symbol tables stop
// growing, so exporting ten times the graph costs the same allocations.
func TestImageOfAllocsFlat(t *testing.T) {
	build := func(n int) *Graph {
		rng := rand.New(rand.NewSource(int64(n)))
		g := New()
		for i := 0; i < n; i++ {
			id := g.AddNode([]Label{"person", "product"}[i%2])
			g.SetAttr(id, "type", String([]string{"a", "b", "c"}[rng.Intn(3)]))
			if i%3 == 0 {
				g.SetAttr(id, "rank", Int(rng.Intn(4)))
			}
		}
		for i := 0; i < n; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), "likes", NodeID(rng.Intn(n)))
		}
		return g
	}
	small, large := build(1000), build(10000)
	a1 := testing.AllocsPerRun(5, func() { ImageOf(small) })
	a10 := testing.AllocsPerRun(5, func() { ImageOf(large) })
	if a10 > a1 {
		t.Fatalf("ImageOf allocates %.0f times at 1k nodes but %.0f at 10k", a1, a10)
	}
	t.Logf("allocs: %.0f at 1k nodes, %.0f at 10k", a1, a10)
}

// TestImageAllocsFlatInStrings: the string table is sized once from the
// string-valued rows, so exporting a graph whose every row holds a new
// string costs what exporting one with ten distinct strings does.
func TestImageAllocsFlatInStrings(t *testing.T) {
	build := func(distinct int) *Graph {
		g := New()
		for i := 0; i < 10000; i++ {
			id := g.AddNode("person")
			g.SetAttr(id, "name", String("n"+strconv.Itoa(i%distinct)))
		}
		return g
	}
	few, many := build(10), build(10000)
	for _, c := range []struct {
		name   string
		export func(*Graph) func()
	}{
		{"ImageOf", func(g *Graph) func() { return func() { ImageOf(g) } }},
		{"Snapshot.Image", func(g *Graph) func() {
			s := g.Freeze()
			return func() { s.Image(nil) }
		}},
	} {
		a := testing.AllocsPerRun(5, c.export(few))
		b := testing.AllocsPerRun(5, c.export(many))
		if b > a {
			t.Errorf("%s allocates %.0f times over 10 distinct strings but %.0f over 10,000", c.name, a, b)
		}
	}
}
