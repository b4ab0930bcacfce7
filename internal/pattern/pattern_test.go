package pattern

import (
	"fmt"
	"testing"

	"gedlib/internal/graph"
)

func TestBuildPattern(t *testing.T) {
	p := New()
	p.AddVar("x", "person").AddVar("y", "product")
	p.AddEdge("x", "create", "y")
	if p.NumVars() != 2 || len(p.Edges()) != 1 || p.Size() != 3 {
		t.Fatalf("pattern shape wrong: %d vars, %d edges", p.NumVars(), len(p.Edges()))
	}
	if p.Label("x") != "person" || p.Label("y") != "product" {
		t.Error("labels wrong")
	}
	if p.Label("zzz") != graph.Wildcard {
		t.Error("unknown var label should be wildcard")
	}
	if got := []Var{p.Vars()[0], p.Vars()[1]}; got[0] != "x" || got[1] != "y" {
		t.Error("var order must be insertion order")
	}
}

func TestAddEdgeAutoVars(t *testing.T) {
	p := New()
	p.AddEdge("a", "e", "b")
	if !p.HasVar("a") || !p.HasVar("b") {
		t.Error("endpoints must be auto-added")
	}
	if p.Label("a") != graph.Wildcard {
		t.Error("auto-added vars are wildcard-labeled")
	}
}

func TestRelabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on relabel")
		}
	}()
	New().AddVar("x", "a").AddVar("x", "b")
}

func TestCopyBijection(t *testing.T) {
	p := New()
	p.AddVar("x", "album").AddVar("x2", "artist")
	p.AddEdge("x", "by", "x2")
	c, f := p.Copy(func(v Var) Var { return "y_" + v })
	if f["x"] != "y_x" || f["x2"] != "y_x2" {
		t.Fatalf("bijection wrong: %v", f)
	}
	if c.Label("y_x") != "album" || c.Label("y_x2") != "artist" {
		t.Error("copy labels wrong")
	}
	if len(c.Edges()) != 1 || c.Edges()[0] != (Edge{"y_x", "by", "y_x2"}) {
		t.Error("copy edges wrong")
	}
	// Originals untouched.
	if p.HasVar("y_x") {
		t.Error("copy mutated original")
	}
}

func TestCopyCollisionPanics(t *testing.T) {
	p := New()
	p.AddVar("x", "a").AddVar("y_x", "a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on colliding rename")
		}
	}()
	p.Copy(func(v Var) Var { return "y_" + v })
}

func TestUnion(t *testing.T) {
	p := New()
	p.AddVar("x", "a")
	q := New()
	q.AddVar("y", "b")
	q.AddEdge("y", "e", "x") // shares x, which union adds as wildcard first? No: q auto-adds x wildcard.
	u := Union(p, q)
	if u.NumVars() != 2 {
		t.Fatalf("union vars = %d, want 2", u.NumVars())
	}
	if u.Label("x") != "a" {
		t.Error("union must keep p's concrete label for shared var")
	}
}

func TestToGraph(t *testing.T) {
	p := New()
	p.AddVar("x", "person").AddVar("y", graph.Wildcard)
	p.AddEdge("x", "likes", "y")
	g, m := p.ToGraph()
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatal("canonical graph shape wrong")
	}
	if g.Label(m["x"]) != "person" || g.Label(m["y"]) != graph.Wildcard {
		t.Error("canonical graph labels wrong")
	}
	if !g.HasEdge(m["x"], "likes", m["y"]) {
		t.Error("canonical graph edge missing")
	}
	if g.NumAttrs(m["x"]) != 0 {
		t.Error("canonical graph must have empty F_A")
	}
}

// findMatches freezes g and collects up to limit matches of p in the
// snapshot (limit <= 0 means all), stopping the enumeration at limit.
func findMatches(p *Pattern, g *graph.Graph, limit int) []Match {
	var out []Match
	ForEachMatch(p, g.Freeze(), func(m Match) bool {
		out = append(out, m.Clone())
		return limit <= 0 || len(out) < limit
	})
	return out
}

func countMatches(p *Pattern, g *graph.Graph) int { return len(findMatches(p, g, 0)) }

func hasMatch(p *Pattern, g *graph.Graph) bool { return len(findMatches(p, g, 1)) > 0 }

// triangleGraph returns K3^sym: three c-nodes with all six directed edges.
func triangleGraph() *graph.Graph {
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 3; i++ {
		ids = append(ids, g.AddNode("c"))
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				g.AddEdge(ids[i], "e", ids[j])
			}
		}
	}
	return g
}

func TestMatchSimpleEdge(t *testing.T) {
	g := graph.New()
	p1 := g.AddNode("person")
	pr := g.AddNode("product")
	p2 := g.AddNode("person")
	g.AddEdge(p1, "create", pr)
	g.AddEdge(p2, "like", pr)

	q := New()
	q.AddVar("x", "person").AddVar("y", "product")
	q.AddEdge("x", "create", "y")

	ms := findMatches(q, g, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0]["x"] != p1 || ms[0]["y"] != pr {
		t.Errorf("match wrong: %v", ms[0])
	}
}

func TestMatchHomomorphismNotInjective(t *testing.T) {
	// Two pattern variables may map to the same node: this is the crux of
	// the paper's homomorphism semantics (the "UoE" example, Section 3).
	g := graph.New()
	u := g.AddNode("UoE")
	q := New()
	q.AddVar("x", "UoE").AddVar("y", "UoE")
	ms := findMatches(q, g, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0]["x"] != u || ms[0]["y"] != u {
		t.Error("both variables must map to the single node")
	}
}

func TestMatchWildcardNodeLabel(t *testing.T) {
	g := graph.New()
	a := g.AddNode("bird")
	b := g.AddNode("moa")
	g.AddEdge(b, "is_a", a)
	q := New()
	q.AddVar("x", graph.Wildcard).AddVar("y", graph.Wildcard)
	q.AddEdge("y", "is_a", "x")
	ms := findMatches(q, g, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0]["y"] != b || ms[0]["x"] != a {
		t.Error("wildcard match wrong")
	}
}

func TestConcreteLabelDoesNotMatchWildcardNode(t *testing.T) {
	// In canonical graphs nodes may be labeled '_'; a concretely-labeled
	// pattern variable must not match them (⪯ is asymmetric).
	g := graph.New()
	g.AddNode(graph.Wildcard)
	q := New()
	q.AddVar("x", "person")
	if hasMatch(q, g) {
		t.Error("concrete label must not match wildcard node")
	}
	q2 := New()
	q2.AddVar("x", graph.Wildcard)
	if !hasMatch(q2, g) {
		t.Error("wildcard label must match wildcard node")
	}
}

func TestMatchWildcardEdgeLabel(t *testing.T) {
	g := graph.New()
	a := g.AddNode("x")
	b := g.AddNode("y")
	g.AddEdge(a, "anything", b)
	q := New()
	q.AddVar("u", "x").AddVar("v", "y")
	q.AddEdge("u", graph.Wildcard, "v")
	if !hasMatch(q, g) {
		t.Error("wildcard edge label must match any edge")
	}
	q2 := New()
	q2.AddVar("u", "x").AddVar("v", "y")
	q2.AddEdge("u", "other", "v")
	if hasMatch(q2, g) {
		t.Error("concrete edge label must not match different label")
	}
}

func TestConcreteEdgeLabelDoesNotMatchWildcardEdge(t *testing.T) {
	g := graph.New()
	a := g.AddNode("x")
	b := g.AddNode("y")
	g.AddEdge(a, graph.Wildcard, b)
	q := New()
	q.AddVar("u", "x").AddVar("v", "y")
	q.AddEdge("u", "e", "v")
	if hasMatch(q, g) {
		t.Error("concrete edge label must not match wildcard host edge")
	}
}

func TestTriangleColorings(t *testing.T) {
	// Homomorphisms from a single undirected edge (both directions) into
	// K3^sym are the ordered pairs of distinct colors: 6 of them.
	g := triangleGraph()
	q := New()
	q.AddVar("u", "c").AddVar("v", "c")
	q.AddEdge("u", "e", "v")
	q.AddEdge("v", "e", "u")
	if n := countMatches(q, g); n != 6 {
		t.Errorf("edge into K3: %d matches, want 6", n)
	}
	// A path of two edges: 3*2*2 = 12 homomorphisms.
	q2 := New()
	q2.AddVar("a", "c").AddVar("b", "c").AddVar("c", "c")
	q2.AddEdge("a", "e", "b")
	q2.AddEdge("b", "e", "c")
	if n := countMatches(q2, g); n != 12 {
		t.Errorf("path into K3: %d matches, want 12", n)
	}
	// Triangle into K3^sym: 3! = 6 proper colorings.
	q3 := New()
	q3.AddVar("a", "c").AddVar("b", "c").AddVar("d", "c")
	for _, e := range [][2]Var{{"a", "b"}, {"b", "d"}, {"a", "d"}} {
		q3.AddEdge(e[0], "e", e[1])
		q3.AddEdge(e[1], "e", e[0])
	}
	if n := countMatches(q3, g); n != 6 {
		t.Errorf("triangle into K3: %d matches, want 6", n)
	}
}

func TestSelfLoopPattern(t *testing.T) {
	g := graph.New()
	a := g.AddNode("x")
	b := g.AddNode("x")
	g.AddEdge(a, "e", a)
	g.AddEdge(a, "e", b)
	q := New()
	q.AddVar("u", "x")
	q.AddEdge("u", "e", "u")
	ms := findMatches(q, g, 0)
	if len(ms) != 1 || ms[0]["u"] != a {
		t.Errorf("self-loop matches: %v", ms)
	}
}

func TestEmptyPattern(t *testing.T) {
	g := graph.New()
	g.AddNode("x")
	ms := findMatches(New(), g, 0)
	if len(ms) != 1 {
		t.Errorf("empty pattern must have exactly one match, got %d", len(ms))
	}
}

func TestIsolatedVariables(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("a")
	g.AddNode("b")
	q := New()
	q.AddVar("x", "a").AddVar("y", "b")
	if n := countMatches(q, g); n != 2 {
		t.Errorf("isolated vars: %d matches, want 2", n)
	}
}

func TestNoMatchMissingEdge(t *testing.T) {
	g := graph.New()
	a := g.AddNode("x")
	b := g.AddNode("y")
	g.AddEdge(a, "e", b)
	q := New()
	q.AddVar("u", "x").AddVar("v", "y")
	q.AddEdge("v", "e", "u") // reversed direction
	if hasMatch(q, g) {
		t.Error("direction must be respected")
	}
}

func TestFindMatchesLimit(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode("a")
	}
	q := New()
	q.AddVar("x", "a")
	if n := len(findMatches(q, g, 3)); n != 3 {
		t.Errorf("limit: got %d, want 3", n)
	}
	if n := len(findMatches(q, g, 0)); n != 10 {
		t.Errorf("no limit: got %d, want 10", n)
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	g := graph.New()
	for i := 0; i < 100; i++ {
		g.AddNode("a")
	}
	q := New()
	q.AddVar("x", "a")
	calls := 0
	ForEachMatch(q, g.Freeze(), func(Match) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("early stop: %d calls, want 5", calls)
	}
}

func TestMatchReuseRequiresClone(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("a")
	q := New()
	q.AddVar("x", "a")
	var kept []Match
	ForEachMatch(q, g.Freeze(), func(m Match) bool {
		kept = append(kept, m.Clone())
		return true
	})
	if len(kept) != 2 || kept[0]["x"] == kept[1]["x"] {
		t.Error("cloned matches must be independent")
	}
}

func TestDisconnectedPatternComponents(t *testing.T) {
	g := graph.New()
	a := g.AddNode("x")
	b := g.AddNode("y")
	c := g.AddNode("p")
	d := g.AddNode("q")
	g.AddEdge(a, "e", b)
	g.AddEdge(c, "f", d)
	q := New()
	q.AddVar("u", "x").AddVar("v", "y").AddVar("s", "p").AddVar("t", "q")
	q.AddEdge("u", "e", "v")
	q.AddEdge("s", "f", "t")
	ms := findMatches(q, g, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
}

func TestPatternString(t *testing.T) {
	p := New()
	p.AddVar("x", "person").AddVar("y", "product")
	p.AddEdge("x", "create", "y")
	want := "(x:person)-[create]->(y:product)"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := New()
	p.AddVar("x", "a")
	c := p.Clone()
	c.AddVar("y", "b")
	c.AddEdge("x", "e", "y")
	if p.HasVar("y") || len(p.Edges()) != 0 {
		t.Error("clone mutated original")
	}
}

// TestLargeCycleMatch exercises the matcher on a directed cycle pattern
// against a cycle host: a directed n-cycle has exactly n homomorphisms
// into itself (the rotations).
func TestLargeCycleMatch(t *testing.T) {
	const n = 8
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode("v")
	}
	for i := range ids {
		g.AddEdge(ids[i], "e", ids[(i+1)%n])
	}
	q := New()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = Var(rune('a' + i))
		q.AddVar(vars[i], "v")
	}
	for i := range vars {
		q.AddEdge(vars[i], "e", vars[(i+1)%n])
	}
	if got := countMatches(q, g); got != n {
		t.Errorf("cycle homs = %d, want %d", got, n)
	}
}

// askedAt is a Pruner that abandons nothing and records, per mask it is
// asked about, how many variables were bound at the time.
type askedAt map[uint64]int

func (a askedAt) Prune(_ *graph.Snapshot, bind []graph.NodeID, mask uint64) bool {
	n := 0
	for _, v := range bind {
		if v != unbound {
			n++
		}
	}
	a[mask] = n
	return false
}

// TestPlanOrderClosesLiteralsEarly pins the planner's tie-break and the
// close depths derived from it: among equally intersection-tight
// frontier variables the one that closes a condition goes first, a plan
// with no conditions keeps the order it always had, and a pivoted
// enumeration closes conditions by the order it runs, not the plan's.
func TestPlanOrderClosesLiteralsEarly(t *testing.T) {
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.AddNode("person")
	}
	for i := 0; i < 6; i++ {
		g.AddEdge(graph.NodeID(i), "knows", graph.NodeID((i+1)%6))
		g.AddEdge(graph.NodeID(i), "knows", graph.NodeID((i+2)%6))
	}
	snap := g.Freeze()
	diamond := New() // positions: a 0, b 1, c 2, d 3
	for _, x := range []Var{"a", "b", "c", "d"} {
		diamond.AddVar(x, "person")
	}
	diamond.AddEdge("a", "knows", "b")
	diamond.AddEdge("a", "knows", "c")
	diamond.AddEdge("b", "knows", "d")
	diamond.AddEdge("c", "knows", "d")
	triangle := New()
	for _, x := range []Var{"a", "b", "c"} {
		triangle.AddVar(x, "person")
	}
	triangle.AddEdge("a", "knows", "b")
	triangle.AddEdge("b", "knows", "c")
	triangle.AddEdge("c", "knows", "a")

	for _, tc := range []struct {
		name   string
		p      *Pattern
		closes [][]int
		want   string
	}{
		{"diamond, Y over a and d", diamond, [][]int{{0, 3}}, "a,b,d,c;isect;close=Y@2"},
		{"diamond, Y over a and d, X1 over d", diamond, [][]int{{0, 3}, {3}}, "a,b,d,c;isect;close=Y@2,X1@2"},
		{"diamond, Y over nothing", diamond, [][]int{nil}, "a,b,c,d;isect;close=Y@-"},
		{"triangle, Y over a and b", triangle, [][]int{{0, 1}}, "a,b,c;isect;close=Y@1"},
	} {
		if got := CompileFiltered(tc.p, snap, nil, tc.closes).Fingerprint(); got != tc.want {
			t.Errorf("%s: plan %s, want %s", tc.name, got, tc.want)
		}
	}
	if got, want := CompileFiltered(diamond, snap, nil, nil).Fingerprint(), Compile(diamond, snap).Fingerprint(); got != want || got != "a,b,c,d;isect" {
		t.Errorf("no conditions: plan %s, Compile's %s, want a,b,c,d;isect", got, want)
	}

	pl := CompileFiltered(diamond, snap, nil, [][]int{{0, 3}, {3}})
	all := snap.CandidateNodes("person")
	visit := func([]graph.NodeID) bool { return true }
	for _, tc := range []struct {
		pivot Var
		want  askedAt
	}{
		{"", askedAt{3: 3}},        // a,b,d,c: both close on d
		{"d", askedAt{2: 1, 1: 2}}, // d | a,b,c: X1 on the pivot alone, Y on a
		{"c", askedAt{3: 4}},       // c | a,b,d: both on d, the last level
	} {
		got := askedAt{}
		if tc.pivot == "" {
			pl.ForEachDenseCancel(snap, nil, got, visit)
		} else {
			pl.ForEachDensePivotCancel(snap, tc.pivot, all, nil, got, visit)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("pivot %q: conditions asked at %v, want %v (mask: bound variables)", tc.pivot, got, tc.want)
		}
	}
}
