package chase

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// example4Graph builds the graph of Figure 2: v1, v2 carry A = 1 and
// point (via e-edges) at v1', v2', which carry distinct labels.
func example4Graph() (*graph.Graph, [4]graph.NodeID) {
	g := graph.New()
	v1 := g.AddNodeAttrs("a", map[graph.Attr]graph.Value{"A": graph.Int(1)})
	v2 := g.AddNodeAttrs("a", map[graph.Attr]graph.Value{"A": graph.Int(1)})
	w1 := g.AddNode("b")
	w2 := g.AddNode("c")
	g.AddEdge(v1, "e", w1)
	g.AddEdge(v2, "e", w2)
	return g, [4]graph.NodeID{v1, v2, w1, w2}
}

// phi1 is Q1[x,y](x.A = y.A → x.id = y.id) with Q1 two a-nodes.
func phi1() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "a")
	return ged.New("phi1", q,
		[]ged.Literal{ged.VarLit("x", "A", "y", "A")},
		[]ged.Literal{ged.IDLit("x", "y")})
}

// phi2 is Q2[x,y,z](∅ → y.id = z.id) with Q2 an a-node pointing at two
// wildcard nodes.
func phi2() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", graph.Wildcard).AddVar("z", graph.Wildcard)
	q.AddEdge("x", "e", "y")
	q.AddEdge("x", "e", "z")
	return ged.New("phi2", q, nil, []ged.Literal{ged.IDLit("y", "z")})
}

func TestExample4ValidChase(t *testing.T) {
	g, ids := example4Graph()
	res := Run(g, ged.Set{phi1()})
	if !res.Consistent() {
		t.Fatalf("chase invalid: %v", res.Eq.Conflict())
	}
	if !res.Eq.SameNode(ids[0], ids[1]) {
		t.Error("v1 and v2 must be identified")
	}
	if res.Eq.SameNode(ids[2], ids[3]) {
		t.Error("v1' and v2' must stay distinct under Σ1")
	}
	if res.Coercion().Graph.NumNodes() != 3 {
		t.Errorf("G1 has %d nodes, want 3", res.Coercion().Graph.NumNodes())
	}
	// The merged node keeps its two outgoing edges.
	merged := res.Coercion().NodeOf[ids[0]]
	if len(res.Coercion().Graph.Out(merged)) != 2 {
		t.Error("merged node must keep both e-edges")
	}
	if v, ok := res.Coercion().Graph.Attr(merged, "A"); !ok || !v.Equal(graph.Int(1)) {
		t.Error("merged node must carry A = 1")
	}
}

func TestExample4InvalidChase(t *testing.T) {
	g, _ := example4Graph()
	res := Run(g, ged.Set{phi1(), phi2()})
	if res.Consistent() {
		t.Fatal("Σ2 chase must be invalid (result ⊥)")
	}
	c := res.Eq.Conflict()
	if c.Kind != LabelConflict {
		t.Fatalf("conflict kind = %v, want label conflict", c.Kind)
	}
	if !strings.Contains(c.Error(), "label conflict") {
		t.Errorf("conflict message: %s", c.Error())
	}
	if res.Coercion() != nil {
		t.Error("invalid chase must have nil coercion (⊥)")
	}
}

func TestChurchRosserExample4(t *testing.T) {
	// Applying Σ2 in either order yields ⊥ (Theorem 1).
	g, _ := example4Graph()
	a := Run(g, ged.Set{phi1(), phi2()})
	b := Run(g.Clone(), ged.Set{phi2(), phi1()})
	if a.Consistent() || b.Consistent() {
		t.Error("both orders must be invalid")
	}
}

func TestAttributeConflictForbidding(t *testing.T) {
	g := graph.New()
	g.AddNode("person")
	q := pattern.New()
	q.AddVar("x", "person")
	phi := ged.New("forbid", q, nil, ged.False("x"))
	res := Run(g, ged.Set{phi})
	if res.Consistent() {
		t.Fatal("forbidding constraint must invalidate the chase")
	}
	if res.Eq.Conflict().Kind != AttrConflict {
		t.Error("expected attribute conflict")
	}
}

func TestAttributeGeneration(t *testing.T) {
	// Q[x](∅ → x.A = x.A) forces every τ-node to have an A attribute
	// (Section 3, "existence of attributes").
	g := graph.New()
	n := g.AddNode("tau")
	q := pattern.New()
	q.AddVar("x", "tau")
	phi := ged.New("gen", q, nil, []ged.Literal{ged.VarLit("x", "A", "x", "A")})
	res := Run(g, ged.Set{phi})
	if !res.Consistent() {
		t.Fatal("chase must be valid")
	}
	if _, ok := res.Eq.SlotTerm(n, "A"); !ok {
		t.Error("attribute A must be generated on the tau node")
	}
	// Materialization gives it a placeholder value.
	m := res.Materialize()
	if _, ok := m.Attr(res.Coercion().NodeOf[n], "A"); !ok {
		t.Error("materialized graph must carry generated attribute")
	}
}

func TestConstantPropagation(t *testing.T) {
	// x.A = c in a consequent binds the value class; a second GED with a
	// different constant for the same class conflicts.
	g := graph.New()
	g.AddNode("p")
	q := pattern.New()
	q.AddVar("x", "p")
	phiA := ged.New("a", q, nil, []ged.Literal{ged.ConstLit("x", "t", graph.Int(1))})
	res := Run(g, ged.Set{phiA})
	if !res.Consistent() {
		t.Fatal("single constant must be fine")
	}
	if v, ok := res.Eq.AttrConst(0, "t"); !ok || !v.Equal(graph.Int(1)) {
		t.Error("constant not bound")
	}
	phiB := ged.New("b", q, nil, []ged.Literal{ged.ConstLit("x", "t", graph.Int(2))})
	res2 := Run(graph.New(), ged.Set{})
	_ = res2
	res3 := Run(func() *graph.Graph { h := graph.New(); h.AddNode("p"); return h }(), ged.Set{phiA, phiB})
	if res3.Consistent() {
		t.Fatal("conflicting constants must invalidate")
	}
	if res3.Eq.Conflict().Kind != AttrConflict {
		t.Error("expected attribute conflict")
	}
}

func TestConstantBridgeRuleB(t *testing.T) {
	// Closure rule (b): classes sharing a constant are one class. Both
	// nodes carry A = 1 initially, so [v1.A] = [v2.A] = {v1.A, v2.A, 1},
	// exactly as Example 4 describes Eq0.
	g, ids := example4Graph()
	eq := NewEq(g)
	if !eq.SameValue(ids[0], "A", ids[1], "A") {
		t.Error("Eq0 must merge value classes sharing constant 1")
	}
}

func TestVariableLiteralChase(t *testing.T) {
	// Two capitals must share a name (φ2 of Example 3).
	g := graph.New()
	country := g.AddNode("country")
	c1 := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("Helsinki")})
	c2 := g.AddNode("city")
	g.AddEdge(country, "capital", c1)
	g.AddEdge(country, "capital", c2)
	q := pattern.New()
	q.AddVar("x", "country").AddVar("y", "city").AddVar("z", "city")
	q.AddEdge("x", "capital", "y")
	q.AddEdge("x", "capital", "z")
	phi := ged.New("cap", q, nil, []ged.Literal{ged.VarLit("y", "name", "z", "name")})
	res := Run(g, ged.Set{phi})
	if !res.Consistent() {
		t.Fatal("chase must be valid")
	}
	// c2.name is generated and equated with c1.name, hence Helsinki.
	if v, ok := res.Eq.AttrConst(c2, "name"); !ok || !v.Equal(graph.String("Helsinki")) {
		t.Errorf("c2.name = %v, want Helsinki", v)
	}
}

func TestIDMergePropagatesAttributes(t *testing.T) {
	// Rule (d): identifying nodes merges their attribute classes; a
	// conflict between their constants invalidates the chase.
	g := graph.New()
	a := g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(1)})
	b := g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(2)})
	q := pattern.New()
	q.AddVar("x", "p").AddVar("y", "p")
	phi := ged.New("key", q, nil, []ged.Literal{ged.IDLit("x", "y")})
	res := Run(g, ged.Set{phi})
	if res.Consistent() {
		t.Fatal("merging nodes with conflicting constants must fail")
	}
	_ = a
	_ = b

	// Without the conflict the attributes unify.
	g2 := graph.New()
	a2 := g2.AddNodeAttrs("p", map[graph.Attr]graph.Value{"k": graph.Int(1)})
	b2 := g2.AddNode("p")
	res2 := Run(g2, ged.Set{phi})
	if !res2.Consistent() {
		t.Fatal("chase must be valid")
	}
	if !res2.Eq.SameNode(a2, b2) {
		t.Error("nodes must merge")
	}
	if v, ok := res2.Eq.AttrConst(b2, "k"); !ok || !v.Equal(graph.Int(1)) {
		t.Error("attribute must propagate to merged class")
	}
}

func TestWildcardLabelResolution(t *testing.T) {
	// Merging a wildcard node with a concrete node resolves to the
	// concrete label (Example 7's point about ⪯ in the chase).
	g := graph.New()
	a := g.AddNode(graph.Wildcard)
	b := g.AddNode("city")
	q := pattern.New()
	q.AddVar("x", graph.Wildcard).AddVar("y", "city")
	phi := ged.New("m", q, nil, []ged.Literal{ged.IDLit("x", "y")})
	res := Run(g, ged.Set{phi})
	if !res.Consistent() {
		t.Fatalf("wildcard merge must be consistent: %v", res.Eq.Conflict())
	}
	if res.Eq.ClassLabel(a) != "city" {
		t.Errorf("resolved label = %s, want city", res.Eq.ClassLabel(a))
	}
	_ = b
}

func TestSeededChase(t *testing.T) {
	// Seeding realizes Eq_X: an inconsistent X invalidates immediately.
	q := pattern.New()
	q.AddVar("x", "p")
	gq, vm := q.ToGraph()
	seeds := []Seed{
		SeedOf(ged.ConstLit("x", "a", graph.Int(1)), vm),
		SeedOf(ged.ConstLit("x", "a", graph.Int(2)), vm),
	}
	res := RunSeeded(gq, nil, seeds)
	if res.Consistent() {
		t.Fatal("inconsistent Eq_X must yield ⊥")
	}

	gq2, vm2 := q.ToGraph()
	res2 := RunSeeded(gq2, nil, []Seed{SeedOf(ged.ConstLit("x", "a", graph.Int(1)), vm2)})
	if !res2.Consistent() {
		t.Fatal("consistent seed rejected")
	}
	if v, ok := res2.Eq.AttrConst(vm2["x"], "a"); !ok || !v.Equal(graph.Int(1)) {
		t.Error("seed literal not recorded")
	}
}

func TestSeededLabelConflict(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b")
	gq, vm := q.ToGraph()
	res := RunSeeded(gq, nil, []Seed{SeedOf(ged.IDLit("x", "y"), vm)})
	if res.Consistent() {
		t.Fatal("id seed over incompatible labels must fail")
	}
	if res.Eq.Conflict().Kind != LabelConflict {
		t.Error("expected label conflict")
	}
}

// signature canonically describes a chase result for Church-Rosser
// comparison: the node partition with labels, and per class the
// attribute names with constants or value-class ids.
func signature(t *testing.T, res *Result) string {
	t.Helper()
	if !res.Consistent() {
		return "⊥"
	}
	eq := res.Eq
	classes := eq.NodeClasses()
	reps := make([]graph.NodeID, 0, len(classes))
	for r := range classes {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool {
		return fmt.Sprint(classes[reps[i]]) < fmt.Sprint(classes[reps[j]])
	})
	valueClassID := make(map[Term]int)
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "%v:%s{", classes[r], eq.ClassLabel(r))
		for _, a := range eq.ClassAttrs(r) {
			if v, ok := eq.AttrConst(r, a); ok {
				fmt.Fprintf(&b, "%s=%s;", a, v)
				continue
			}
			tm, _ := eq.SlotTerm(r, a)
			id, ok := valueClassID[tm]
			if !ok {
				id = len(valueClassID)
				valueClassID[tm] = id
			}
			fmt.Fprintf(&b, "%s~%d;", a, id)
		}
		b.WriteString("} ")
	}
	return b.String()
}

// TestChurchRosserPermutations chases random graphs by random GED sets
// under many Σ orderings and requires identical results (Theorem 1).
func TestChurchRosserPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g, sigma := randomInstance(rng)
		want := signature(t, Run(g.Clone(), sigma))
		for p := 0; p < 4; p++ {
			perm := append(ged.Set{}, sigma...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			got := signature(t, Run(g.Clone(), perm))
			if got != want {
				t.Fatalf("trial %d: order-dependent chase:\n%s\nvs\n%s", trial, want, got)
			}
		}
	}
}

// TestChaseBound checks the Theorem 1 bound: |Eq| ≤ 4·|G|·|Σ| and the
// chase length is at most 8·|G|·|Σ|.
func TestChaseBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		g, sigma := randomInstance(rng)
		res := Run(g, sigma)
		bound := 4 * g.Size() * (sigma.Size() + g.Size())
		if res.Eq.Size() > bound {
			t.Fatalf("trial %d: |Eq| = %d exceeds bound %d", trial, res.Eq.Size(), bound)
		}
		if len(res.Steps) > 2*bound {
			t.Fatalf("trial %d: %d steps exceeds bound %d", trial, len(res.Steps), 2*bound)
		}
	}
}

// TestChaseResultSatisfiesSigma checks Theorem 1's final claim: for a
// valid terminal chase, G_Eq ⊨ Σ (evaluated on the materialized graph).
func TestChaseResultSatisfiesSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		g, sigma := randomInstance(rng)
		res := Run(g, sigma)
		if !res.Consistent() {
			continue
		}
		m := res.Materialize()
		for _, d := range sigma {
			if v := naiveViolation(m, d); v != "" {
				t.Fatalf("trial %d: materialized chase result violates %s: %s\ngraph:\n%s", trial, d.Name, v, m)
			}
		}
	}
}

// naiveViolation checks G ⊨ φ directly on stored attribute values,
// returning a description of the first violating match.
func naiveViolation(g *graph.Graph, d *ged.GED) string {
	snap := g.Freeze()
	bad := ""
	pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
		for _, l := range d.X {
			if !ged.Holds(snap, l, m) {
				return true
			}
		}
		for _, l := range d.Y {
			if !ged.Holds(snap, l, m) {
				bad = fmt.Sprintf("match %v fails %s", m, l)
				return false
			}
		}
		return true
	})
	return bad
}

// instanceVars are the pattern variables randomInstance draws from, in
// order: a pattern of k variables uses the first k.
var instanceVars = []pattern.Var{"x", "y", "z", "w"}

// randomInstance generates a small random graph and GED set. Shapes are
// chosen to exercise id merges, constant bindings and variable literals
// over patterns of 2–4 variables in 1–3 connected components, with
// antecedent literals both inside a component and across components
// (the chase's join keys), wildcard labels on either side, and
// attributes that only some nodes carry.
func randomInstance(rng *rand.Rand) (*graph.Graph, ged.Set) {
	labels := []graph.Label{"a", "b", "c"}
	attrs := []graph.Attr{"p", "q"}
	label := func() graph.Label {
		if rng.Intn(8) == 0 {
			return graph.Wildcard
		}
		return labels[rng.Intn(len(labels))]
	}
	g := graph.New()
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		id := g.AddNode(label())
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				g.SetAttr(id, a, graph.Int(rng.Intn(2)))
			}
		}
	}
	edges := rng.Intn(2 * n)
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
	}
	var sigma ged.Set
	deps := 1 + rng.Intn(3)
	for i := 0; i < deps; i++ {
		vars := instanceVars[:2+rng.Intn(3)]
		q := pattern.New()
		// Half the patterns use one label throughout, as a key's Q ∪ f(Q)
		// does: the same node then matches in several components, which
		// is what lets cross-component id literals hold at all.
		same, uniform := label(), rng.Intn(2) == 0
		for _, v := range vars {
			if uniform {
				q.AddVar(v, same)
			} else {
				q.AddVar(v, label())
			}
		}
		// The first comps variables seed one component each; every later
		// one hangs off an earlier variable.
		comps := 1 + rng.Intn(min(3, len(vars)))
		compOf := []int{0, 1, 2, 3}
		for j := comps; j < len(vars); j++ {
			i := rng.Intn(j)
			compOf[j] = compOf[i]
			u, v := vars[i], vars[j]
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			q.AddEdge(u, "e", v)
		}
		if comps == 1 && len(vars) == 2 && rng.Intn(2) == 0 {
			q.AddEdge("x", "e", "y")
		}
		v := func() pattern.Var { return vars[rng.Intn(len(vars))] }
		a := func() graph.Attr { return attrs[rng.Intn(len(attrs))] }
		lit := func(kind int) ged.Literal {
			switch kind {
			case 0:
				return ged.IDLit(v(), v())
			case 1:
				return ged.ConstLit(v(), a(), graph.Int(rng.Intn(2)))
			default:
				l := ged.VarLit(v(), a(), v(), a())
				if rng.Intn(2) == 0 {
					l.Right.Attr = l.Left.Attr
				}
				return l
			}
		}
		var xs, ys []ged.Literal
		for k := rng.Intn(3); k > 0; k-- {
			xs = append(xs, lit(rng.Intn(4))) // var literals twice as likely
		}
		if comps > 1 && rng.Intn(3) > 0 {
			// Relate two components, as a key's X relates x to f(x).
			u := rng.Intn(len(vars))
			w := rng.Intn(len(vars))
			for compOf[w] == compOf[u] {
				w = rng.Intn(len(vars))
			}
			l := ged.IDLit(vars[u], vars[w])
			if rng.Intn(3) > 0 {
				at := a()
				l = ged.VarLit(vars[u], at, vars[w], at)
			}
			xs = append(xs, l)
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			ys = append(ys, lit(rng.Intn(3)))
		}
		sigma = append(sigma, ged.New(fmt.Sprintf("r%d", i), q, xs, ys))
	}
	return g, sigma
}

func TestCoercionPanicsOnInconsistent(t *testing.T) {
	g, _ := example4Graph()
	res := Run(g, ged.Set{phi1(), phi2()})
	defer func() {
		if recover() == nil {
			t.Error("Coerce must panic on inconsistent Eq")
		}
	}()
	Coerce(res.Eq)
}

func TestMaterializePanicsOnInvalid(t *testing.T) {
	g, _ := example4Graph()
	res := Run(g, ged.Set{phi1(), phi2()})
	defer func() {
		if recover() == nil {
			t.Error("Materialize must panic on invalid chase")
		}
	}()
	res.Materialize()
}

func TestMaterializeFreshness(t *testing.T) {
	// Distinct constant-less value classes get distinct placeholders;
	// wildcard labels become fresh concrete labels.
	g := graph.New()
	a := g.AddNode(graph.Wildcard)
	b := g.AddNode(graph.Wildcard)
	q := pattern.New()
	q.AddVar("x", graph.Wildcard)
	phi := ged.New("gen", q, nil, []ged.Literal{ged.VarLit("x", "A", "x", "A")})
	res := Run(g, ged.Set{phi})
	if !res.Consistent() {
		t.Fatal("chase must be valid")
	}
	m := res.Materialize()
	va, _ := m.Attr(res.Coercion().NodeOf[a], "A")
	vb, _ := m.Attr(res.Coercion().NodeOf[b], "A")
	if va.Equal(vb) {
		t.Error("distinct value classes must materialize distinct constants")
	}
	if m.Label(res.Coercion().NodeOf[a]) == graph.Wildcard {
		t.Error("wildcard labels must be replaced")
	}
	if m.Label(res.Coercion().NodeOf[a]) == m.Label(res.Coercion().NodeOf[b]) {
		t.Error("fresh labels must be distinct")
	}
}

func TestStepsTraceRecorded(t *testing.T) {
	g, ids := example4Graph()
	res := Run(g, ged.Set{phi1()})
	if len(res.Steps) != 1 {
		t.Fatalf("got %d steps, want 1", len(res.Steps))
	}
	s := res.Steps[0]
	if s.GED != 0 || s.Literal != 0 {
		t.Errorf("step = %+v", s)
	}
	xs, ys := s.Match["x"], s.Match["y"]
	if !(xs == ids[0] && ys == ids[1] || xs == ids[1] && ys == ids[0]) {
		t.Errorf("step match = %v", s.Match)
	}
}

func TestEmptySigma(t *testing.T) {
	g, _ := example4Graph()
	res := Run(g, nil)
	if !res.Consistent() || len(res.Steps) != 0 {
		t.Error("empty Σ must be a trivial valid chase")
	}
	if res.Coercion().Graph.NumNodes() != g.NumNodes() {
		t.Error("coercion must be the identity quotient")
	}
}
