package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// postingVals is the value domain of the posting tests: a few numbers
// and strings, so that pairs gain, lose and swap members often.
func postingVals() []Value {
	var vals []Value
	for i := 0; i < 4; i++ {
		vals = append(vals, Int(i), String(fmt.Sprintf("v%d", i)))
	}
	return vals
}

// postingStream applies nOps random mutations to g: nodes added with
// attribute tuples (so declared postings gain ids past their end),
// edges, and overwrites of declared and undeclared attributes on
// existing nodes (so nodes move into, out of and between pairs).
func postingStream(g *Graph, rng *rand.Rand, nOps int) {
	vals := postingVals()
	attrs := []Attr{"type", "age", "name"}
	for i := 0; i < nOps; i++ {
		switch k := rng.Intn(10); {
		case k < 4 || g.NumNodes() == 0:
			m := map[Attr]Value{"name": String(fmt.Sprintf("n%d", g.NumNodes()))}
			for _, a := range attrs[:2] {
				if rng.Intn(3) > 0 {
					m[a] = vals[rng.Intn(len(vals))]
				}
			}
			g.AddNodeAttrs([]Label{"person", "product"}[rng.Intn(2)], m)
		case k < 6:
			g.AddEdge(NodeID(rng.Intn(g.NumNodes())), "e", NodeID(rng.Intn(g.NumNodes())))
		default:
			g.SetAttr(NodeID(rng.Intn(g.NumNodes())), attrs[rng.Intn(len(attrs))], vals[rng.Intn(len(vals))])
		}
	}
}

// siblingDelta is a delta from p that competes with p's main-line child
// for the tails of p's postings: two added nodes join the declared pair
// (type, "v0"), and an overwrite moves an existing node into (type, 1).
func siblingDelta(p *Snapshot, rng *rand.Rand) *Delta {
	n, v := NodeID(p.NumNodes()), p.SourceVersion()
	return &Delta{
		FromVersion: v,
		ToVersion:   v + 5,
		Nodes:       []NodeAdd{{ID: n, Label: "product"}, {ID: n + 1, Label: "product"}},
		Attrs: []AttrWrite{
			{Node: n, Attr: "type", Value: String("v0")},
			{Node: n + 1, Attr: "type", Value: String("v0")},
			{Node: NodeID(rng.Intn(int(n))), Attr: "type", Value: Int(1)},
		},
	}
}

// checkDeclared asserts that every declared posting of s is strictly
// ascending and equals the brute-force filter of s's attribute column.
func checkDeclared(t *testing.T, s *Snapshot, what string) {
	t.Helper()
	ps := s.postings.Load()
	if ps == nil {
		return
	}
	for pk, p := range *ps {
		a := s.attrs[pk.attr]
		if want := attrFilter(s, a, pk.val); !slices.Equal(p.ids, want) {
			t.Fatalf("%s: declared posting (%s,%v) = %v, want %v", what, a, pk.val, p.ids, want)
		}
	}
}

// postingMoves classifies how a declared posting went from parent to
// child: grown in place (the child claimed the parent's tail), grown in
// a copy (a sibling had claimed it), or rewritten (a node left, or
// joined before the end).
type postingMoves struct{ inPlace, grownCopy, rewritten int }

func (m *postingMoves) note(parent, child *Snapshot) {
	pp, cp := parent.postings.Load(), child.postings.Load()
	if pp == nil || cp == nil {
		return
	}
	for pk, p := range *pp {
		c, ok := (*cp)[pk]
		if !ok || len(p.ids) == 0 || slices.Equal(p.ids, c.ids) {
			continue
		}
		switch {
		case len(c.ids) <= len(p.ids) || !slices.Equal(c.ids[:len(p.ids)], p.ids):
			m.rewritten++
		case &c.ids[0] == &p.ids[0]:
			m.inPlace++
		default:
			m.grownCopy++
		}
	}
}

// TestPostingsMaintainedAcrossApply is the seeded differential of the
// declared value postings. The root declares every (type, v) and
// (age, v) pair; a random stream then adds nodes with tuples, edges and
// overwrites, and now and then a sibling delta is applied to the same
// parent, before or after the main-line child, so one of the two loses
// the claim on the parent's tails. After every Apply, every declared
// posting of every snapshot made so far — old ones and the siblings
// included — must equal a brute-force filter of that snapshot's
// attribute column, and a lookup of an undeclared pair must equal it
// too (declaring the pair from then on).
func TestPostingsMaintainedAcrossApply(t *testing.T) {
	vals := postingVals()
	var moves postingMoves
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		postingStream(g, rng, 30+rng.Intn(30))
		root := g.Freeze()
		for _, a := range []Attr{"type", "age"} {
			for _, v := range vals {
				root.Lookup(a, v)
			}
		}
		lineage := []*Snapshot{root}
		cur := root
		for batch := 0; batch < 24; batch++ {
			what := fmt.Sprintf("seed %d batch %d", seed, batch)
			parent := cur
			if batch%4 == 3 {
				sib := parent.Apply(siblingDelta(parent, rng))
				moves.note(parent, sib)
				lineage = append(lineage, sib)
			}
			from := g.Version()
			postingStream(g, rng, 1+rng.Intn(12))
			cur = parent.Apply(g.DeltaSince(from))
			moves.note(parent, cur)
			lineage = append(lineage, cur)
			if batch%4 == 1 {
				sib := parent.Apply(siblingDelta(parent, rng))
				moves.note(parent, sib)
				lineage = append(lineage, sib)
			}
			for i, s := range lineage {
				checkDeclared(t, s, fmt.Sprintf("%s snapshot %d", what, i))
			}
			// An undeclared pair: its first lookup scans, later Applies
			// maintain it.
			v := vals[rng.Intn(len(vals))]
			for _, a := range []Attr{"name", "ghost"} {
				if got, want := cur.Lookup(a, v), attrFilter(g, a, v); !slices.Equal(got, want) {
					t.Fatalf("%s: Lookup(%s,%v) = %v, want %v", what, a, v, got, want)
				}
			}
		}
	}
	if moves.inPlace == 0 || moves.grownCopy == 0 || moves.rewritten == 0 {
		t.Fatalf("differential is vacuous: %+v", moves)
	}
}

// TestPostingsParentUntouchedByApply: maintaining the child's postings
// must not disturb the parent's — copy-on-write, not sharing-by-alias.
func TestPostingsParentUntouchedByApply(t *testing.T) {
	g := New()
	a := g.AddNodeAttrs("person", map[Attr]Value{"type": String("x")})
	b := g.AddNodeAttrs("person", map[Attr]Value{"type": String("x")})
	parent := g.Freeze()
	if got := parent.Lookup("type", String("x")); !sameIDSet(got, []NodeID{a, b}) {
		t.Fatalf("parent Lookup = %v", got)
	}

	from := g.Version()
	g.SetAttr(a, "type", String("y"))
	g.SetAttr(b, "kind", String("z"))
	child := parent.Apply(g.DeltaSince(from))

	if got := parent.Lookup("type", String("x")); !sameIDSet(got, []NodeID{a, b}) {
		t.Fatalf("parent postings disturbed: %v", got)
	}
	if got := parent.Lookup("kind", String("z")); len(got) != 0 {
		t.Fatalf("parent sees child-only posting: %v", got)
	}
	if got := child.Lookup("type", String("x")); !sameIDSet(got, []NodeID{b}) {
		t.Fatalf("child Lookup(type,x) = %v, want [%d]", got, b)
	}
	if got := child.Lookup("type", String("y")); !sameIDSet(got, []NodeID{a}) {
		t.Fatalf("child Lookup(type,y) = %v, want [%d]", got, a)
	}
	if got := child.Lookup("kind", String("z")); !sameIDSet(got, []NodeID{b}) {
		t.Fatalf("child Lookup(kind,z) = %v, want [%d]", got, b)
	}
}

// TestPostingsLazyWhenParentLazy: a parent that declared nothing hands
// the child nothing — the child builds a pair on its first lookup and
// still agrees with a fresh Freeze.
func TestPostingsLazyWhenParentLazy(t *testing.T) {
	g := New()
	g.AddNodeAttrs("person", map[Attr]Value{"type": String("x")})
	parent := g.Freeze()
	from := g.Version()
	id := g.AddNode("person")
	g.SetAttr(id, "type", String("x"))
	child := parent.Apply(g.DeltaSince(from))
	if child.postings.Load() != nil {
		t.Fatal("child declares postings its parent never declared")
	}
	if got, want := child.Lookup("type", String("x")), g.Freeze().Lookup("type", String("x")); !sameIDSet(got, want) {
		t.Fatalf("child Lookup = %v, want %v", got, want)
	}
}

// TestPostingsConcurrentDeclare races first lookups of one pair on a
// shared snapshot against each other and against an Apply from it (run
// it under -race): every lookup answers the filter, and the child —
// whichever declarations it saw — answers it too.
func TestPostingsConcurrentDeclare(t *testing.T) {
	for round := 0; round < 8; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		g := New()
		postingStream(g, rng, 200)
		s := g.Freeze()
		s.Lookup("age", Int(1)) // declared before the race
		from := g.Version()
		postingStream(g, rng, 40)
		d := g.DeltaSince(from)
		got := make([][]NodeID, 6)
		var child *Snapshot
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = s.Lookup("type", String("v0"))
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			child = s.Apply(d)
		}()
		wg.Wait()
		want := attrFilter(s, "type", String("v0"))
		for i, l := range got {
			if !slices.Equal(l, want) {
				t.Fatalf("round %d reader %d: %v, want %v", round, i, l, want)
			}
		}
		checkDeclared(t, s, fmt.Sprintf("round %d parent", round))
		checkDeclared(t, child, fmt.Sprintf("round %d child", round))
		for _, a := range []Attr{"type", "age"} {
			if l, want := child.Lookup(a, String("v0")), attrFilter(g, a, String("v0")); !slices.Equal(l, want) {
				t.Fatalf("round %d child: Lookup(%s) = %v, want %v", round, a, l, want)
			}
		}
	}
}

// productGraph is the graph the allocation tests advance: n products,
// all typed "v0", so the declared pair (type, "v0") holds n ids.
func productGraph(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNodeAttrs("product", map[Attr]Value{"type": String("v0"), "name": String(fmt.Sprintf("n%d", i))})
	}
	return g
}

// addDeltas is runs deltas in sequence from snapshot version v over n
// nodes, each adding k products typed typ and overwriting the names of
// k existing nodes.
func addDeltas(v uint64, n, runs, k int, typ Value) []*Delta {
	ds := make([]*Delta, runs)
	for r := range ds {
		d := &Delta{FromVersion: v}
		for i := 0; i < k; i++ {
			id := NodeID(n + r*k + i)
			d.Nodes = append(d.Nodes, NodeAdd{ID: id, Label: "product"})
			d.Attrs = append(d.Attrs,
				AttrWrite{Node: id, Attr: "type", Value: typ},
				AttrWrite{Node: NodeID((r*k + i) * 7 % n), Attr: "name", Value: String(fmt.Sprintf("r%d", r))})
		}
		v += uint64(3 * k)
		d.ToVersion = v
		ds[r] = d
	}
	return ds
}

// applyCost is the mean allocations and bytes of applying deltas in
// sequence from s.
func applyCost(s *Snapshot, deltas []*Delta) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	i := 0
	runtime.ReadMemStats(&m0)
	allocs = testing.AllocsPerRun(len(deltas)-1, func() {
		s = s.Apply(deltas[i])
		i++
	})
	runtime.ReadMemStats(&m1)
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(deltas))
}

// TestPostingAppendAllocs: an Apply that adds k nodes to a declared
// posting of n ids costs O(k) for it, not a copy of the posting — the
// declared lineage allocates within a fraction of one copy of what the
// same deltas cost a lineage that declared nothing.
func TestPostingAppendAllocs(t *testing.T) {
	const n, runs, k = 1 << 15, 64, 16
	g := productGraph(n)
	identityIDs(n + runs*k) // grow the shared id table outside the measurement
	declared, plain := g.Freeze(), g.Freeze()
	if len(declared.Lookup("type", String("v0"))) != n {
		t.Fatal("base posting incomplete")
	}
	ds := addDeltas(g.Version(), n, runs, k, String("v0"))
	_, plainBytes := applyCost(plain, ds)
	_, declBytes := applyCost(declared, ds)
	if extra, copyBytes := declBytes-plainBytes, float64(n*8); extra > copyBytes/8 {
		t.Fatalf("appending %d ids to a %d-id posting costs %.0f extra bytes per Apply (%.0f plain), an eighth of a copy is %.0f",
			k, n, extra, plainBytes, copyBytes/8)
	}
}

// TestPostingUntouchedAllocs: an Apply whose writes move no node into
// or out of a declared pair — undeclared attributes, and the declared
// attribute with an undeclared value — allocates nothing for postings.
func TestPostingUntouchedAllocs(t *testing.T) {
	const n, runs, k = 1 << 12, 32, 8
	g := productGraph(n)
	identityIDs(n + runs*k)
	declared, plain := g.Freeze(), g.Freeze()
	declared.Lookup("type", String("v0"))
	declared.Lookup("age", Int(3))
	ds := addDeltas(g.Version(), n, runs, k, String("v9"))
	plainAllocs, plainBytes := applyCost(plain, ds)
	declAllocs, declBytes := applyCost(declared, ds)
	if declAllocs != plainAllocs || declBytes > plainBytes*1.005+64 {
		t.Fatalf("declared lineage: %.1f allocs, %.0f bytes per Apply; undeclared: %.1f allocs, %.0f bytes",
			declAllocs, declBytes, plainAllocs, plainBytes)
	}
}

// TestFreezeAllocs pins what Freeze and Quotient allocate, the
// snapshot builds of the chase: neither builds a value posting, so a
// change to these counts (taken under Go 1.24) is a change to the
// chase's cost.
func TestFreezeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	postingStream(g, rng, 3000)
	identityIDs(g.NumNodes())
	s := g.Freeze()
	classOf := make([]NodeID, s.NumNodes())
	var labels []Label
	for i := range classOf {
		classOf[i] = NodeID(i / 2)
		if i%2 == 0 {
			labels = append(labels, s.Label(NodeID(i)))
		}
	}
	for _, c := range []struct {
		name   string
		f      func()
		allocs float64
	}{
		{"Freeze", func() { g.Freeze() }, 65},
		{"Quotient", func() { s.Quotient(classOf, labels) }, 51},
	} {
		c.f()
		if got := testing.AllocsPerRun(20, c.f); got != c.allocs {
			t.Errorf("%s: %.0f allocs, want %.0f", c.name, got, c.allocs)
		}
	}
}
