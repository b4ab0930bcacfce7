package gen

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// checkSat, implies and validate are the ctx-free shorthands of the
// static analyses and of snapshot validation; an analysis that errs
// panics.
func checkSat(sigma ged.Set) *gdc.SatResult {
	r, err := gdc.CheckSat(context.Background(), sigma, 0)
	if err != nil {
		panic(err)
	}
	return r
}

func implies(sigma ged.Set, phi *ged.GED) *gdc.ImplResult {
	r, err := gdc.Implies(context.Background(), sigma, phi, 0)
	if err != nil {
		panic(err)
	}
	return r
}

func validate(g *graph.Graph, sigma ged.Set, limit int) []reason.Violation {
	vs, err := reason.NewValidatorOn(g.Freeze(), sigma).RunCtx(context.Background(), limit)
	if err != nil {
		panic(err)
	}
	return vs
}

func TestGraphFamiliesChromatic(t *testing.T) {
	cases := []struct {
		name string
		g    *UGraph
		chi3 bool // 3-colorable?
	}{
		{"K3", Complete(3), true},
		{"K4", Complete(4), false},
		{"K5", Complete(5), false},
		{"C4", Cycle(4), true},
		{"C5", Cycle(5), true},
		{"C7", Cycle(7), true},
		{"W4", Wheel(4), true},  // even wheel: 3-chromatic
		{"W5", Wheel(5), false}, // odd wheel: 4-chromatic
		{"W7", Wheel(7), false},
		{"Petersen", Petersen(), true},
		{"K33", CompleteBipartite(3, 3), true},
		{"Grotzsch", Grotzsch(), false}, // triangle-free, 4-chromatic
		{"Path5", Path(5), true},
	}
	for _, c := range cases {
		if got := c.g.Colorable(3); got != c.chi3 {
			t.Errorf("%s: Colorable(3) = %v, want %v", c.name, got, c.chi3)
		}
	}
	// Sanity on 2-colorability.
	if Cycle(5).Colorable(2) {
		t.Error("odd cycle must not be 2-colorable")
	}
	if !CompleteBipartite(2, 3).Colorable(2) {
		t.Error("bipartite graph must be 2-colorable")
	}
}

func TestGrotzschTriangleFree(t *testing.T) {
	g := Grotzsch()
	if g.N != 11 || len(g.Edges) != 20 {
		t.Fatalf("Grötzsch shape: n=%d m=%d, want 11/20", g.N, len(g.Edges))
	}
	adj := make(map[[2]int]bool)
	for _, e := range g.Edges {
		adj[[2]int{e[0], e[1]}] = true
		adj[[2]int{e[1], e[0]}] = true
	}
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			for k := j + 1; k < g.N; k++ {
				if adj[[2]int{i, j}] && adj[[2]int{j, k}] && adj[[2]int{i, k}] {
					t.Fatalf("triangle %d-%d-%d in Grötzsch graph", i, j, k)
				}
			}
		}
	}
}

func TestConnected(t *testing.T) {
	if !Cycle(5).Connected() || !Petersen().Connected() {
		t.Error("families must be connected")
	}
	dis := &UGraph{N: 4}
	dis.AddEdge(0, 1)
	dis.AddEdge(2, 3)
	if dis.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if (&UGraph{}).Connected() {
		t.Error("empty graph is not connected")
	}
}

func TestUGraphAddEdge(t *testing.T) {
	g := &UGraph{N: 3}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, reversed
	g.AddEdge(1, 1) // self-loop ignored
	if len(g.Edges) != 1 {
		t.Errorf("edges = %d, want 1", len(g.Edges))
	}
}

// reductionInputs are the instances the reductions are verified on.
func reductionInputs() map[string]*UGraph {
	return map[string]*UGraph{
		"K3":       Complete(3),
		"K4":       Complete(4),
		"C5":       Cycle(5),
		"W4":       Wheel(4),
		"W5":       Wheel(5),
		"Path4":    Path(4),
		"K23":      CompleteBipartite(2, 3),
		"Triangle": Cycle(3),
	}
}

func TestSatGFDFamily(t *testing.T) {
	// Σ(H) is satisfiable iff H is NOT 3-colorable (Theorem 3 shape).
	for name, h := range reductionInputs() {
		want := !h.Colorable(3)
		sigma := SatGFDFamily(h)
		if sigma.Classify() != ged.ClassGFD {
			t.Errorf("%s: family must be GFDs, got %v", name, sigma.Classify())
		}
		r := checkSat(sigma)
		if r.Satisfiable != want {
			t.Errorf("%s: satisfiable = %v, want %v", name, r.Satisfiable, want)
		}
		if r.Satisfiable && !reason.IsModel(r.Model, sigma) {
			t.Errorf("%s: witness is not a model", name)
		}
	}
}

func TestImplGFDxFamily(t *testing.T) {
	// Σ ⊨ φ iff H IS 3-colorable (Theorem 5 shape, single GFDx).
	for name, h := range reductionInputs() {
		want := h.Colorable(3)
		sigma, phi := ImplGFDxFamily(h)
		if sigma.Classify() != ged.ClassGFDx || phi.Classify() != ged.ClassGFDx {
			t.Errorf("%s: family must be GFDx", name)
		}
		if got := implies(sigma, phi).Implied; got != want {
			t.Errorf("%s: implied = %v, want %v", name, got, want)
		}
	}
}

func TestImplGKeyFamily(t *testing.T) {
	// Σ ⊨ φ iff H IS 3-colorable (Theorem 5 shape, GKeys).
	for name, h := range reductionInputs() {
		want := h.Colorable(3)
		sigma, phi := ImplGKeyFamily(h)
		if !ged.IsGKey(sigma[0]) || !ged.IsGKey(phi) {
			t.Errorf("%s: family must be GKeys", name)
		}
		if got := implies(sigma, phi).Implied; got != want {
			t.Errorf("%s: implied = %v, want %v", name, got, want)
		}
	}
}

func TestValidGFDxFamily(t *testing.T) {
	// G ⊨ Σ iff H is NOT 3-colorable (Theorem 6 shape, single GFDx).
	for name, h := range reductionInputs() {
		want := !h.Colorable(3)
		g, sigma := ValidGFDxFamily(h)
		if got := reason.Satisfies(g, sigma); got != want {
			t.Errorf("%s: G ⊨ Σ = %v, want %v", name, got, want)
		}
	}
}

func TestValidGKeyFamily(t *testing.T) {
	for name, h := range reductionInputs() {
		want := !h.Colorable(3)
		g, sigma := ValidGKeyFamily(h)
		if got := reason.Satisfies(g, sigma); got != want {
			t.Errorf("%s: G ⊨ Σ = %v, want %v", name, got, want)
		}
	}
}

func TestHardnessInputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("edgeless input must panic")
		}
	}()
	SatGFDFamily(&UGraph{N: 2})
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := RandomConnected(rng, 5+rng.Intn(10), rng.Intn(8))
		if !g.Connected() {
			t.Fatal("RandomConnected produced a disconnected graph")
		}
	}
}

// TestReductionsOnRandomInputs cross-checks all four reduction families
// against brute force on random connected graphs.
func TestReductionsOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		h := RandomConnected(rng, 4+rng.Intn(3), rng.Intn(5))
		if len(h.Edges) == 0 {
			continue
		}
		chi3 := h.Colorable(3)
		if got := checkSat(SatGFDFamily(h)).Satisfiable; got != !chi3 {
			t.Errorf("sat family wrong on %s (chi3=%v)", h, chi3)
		}
		sigma, phi := ImplGFDxFamily(h)
		if got := implies(sigma, phi).Implied; got != chi3 {
			t.Errorf("impl family wrong on %s (chi3=%v)", h, chi3)
		}
		g, s := ValidGFDxFamily(h)
		if got := reason.Satisfies(g, s); got != !chi3 {
			t.Errorf("valid family wrong on %s (chi3=%v)", h, chi3)
		}
	}
}

func TestKnowledgeBase(t *testing.T) {
	g, stats := KnowledgeBase(1, 20, 0.3)
	if stats.Total() == 0 {
		t.Fatal("expected planted inconsistencies at rate 0.3")
	}
	sigma := ged.Set{PaperPhi1(), PaperPhi2(), PaperPhi3(), PaperPhi4()}
	vs := validate(g, sigma, 0)
	if len(vs) < stats.Total() {
		t.Errorf("validation found %d violations, planted %d", len(vs), stats.Total())
	}
	// A clean KB validates.
	clean, cstats := KnowledgeBase(2, 20, 0)
	if cstats.Total() != 0 {
		t.Fatal("rate 0 must plant nothing")
	}
	if !reason.Satisfies(clean, sigma) {
		vs := validate(clean, sigma, 3)
		t.Errorf("clean KB must satisfy Σ; first violations: %v", vs)
	}
}

func TestSocialNetwork(t *testing.T) {
	g, stats := SocialNetwork(1, 4, 5)
	if stats.SeedFakes == 0 {
		t.Fatal("expected seed fakes")
	}
	phi5 := PaperPhi5(2)
	vs := validate(g, ged.Set{phi5}, 0)
	if len(vs) == 0 {
		t.Error("spam rule must fire on the social workload")
	}
}

func TestMusicDB(t *testing.T) {
	g, stats := MusicDB(1, 15, 0.5)
	if stats.DupPairs == 0 {
		t.Fatal("expected planted duplicates")
	}
	keys := PaperKeys()
	vs := validate(g, keys, 0)
	if len(vs) == 0 {
		t.Error("planted duplicates must violate the keys")
	}
	// A duplicate-free catalog satisfies the keys.
	clean, cstats := MusicDB(2, 15, 0)
	if cstats.DupPairs != 0 {
		t.Fatal("rate 0 must plant nothing")
	}
	if !reason.Satisfies(clean, keys) {
		t.Error("clean catalog must satisfy the keys")
	}
}

func TestRandomPropertyGraphDeterministic(t *testing.T) {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p"}
	g1 := RandomPropertyGraph(7, 50, 2, labels, attrs, 3)
	g2 := RandomPropertyGraph(7, 50, 2, labels, attrs, 3)
	if g1.String() != g2.String() {
		t.Error("same seed must reproduce the graph")
	}
	g3 := RandomPropertyGraph(8, 50, 2, labels, attrs, 3)
	if g1.String() == g3.String() {
		t.Error("different seeds should differ")
	}
}

func TestRandomGEDSetValid(t *testing.T) {
	sigma := RandomGEDSet(5, 10, 4, []graph.Label{"a", "b"}, []graph.Attr{"p", "q"}, 3)
	if len(sigma) != 10 {
		t.Fatalf("size = %d", len(sigma))
	}
	if err := sigma.Validate(); err != nil {
		t.Errorf("generated set invalid: %v", err)
	}
}

// TestTable1 reproduces the paper's Table 1 as decisions: every class
// (GED, GFD, GKey, GFDx, GDC, GED∨) × problem (satisfiability,
// implication, validation) cell the library implements is decided on
// instances with known ground truth — brute-force 3-colorability for the
// hardness families, the planted-inconsistency counts for the workloads
// — and every decision must match.
func TestTable1(t *testing.T) {
	type row struct {
		class, problem, instance string
		want                     bool
		decide                   func() bool
	}
	var rows []row
	add := func(class, problem, instance string, want bool, decide func() bool) {
		rows = append(rows, row{class, problem, instance, want, decide})
	}

	hard := []struct {
		name string
		h    *UGraph
	}{
		{"K3", Complete(3)}, {"K4", Complete(4)}, {"C5", Cycle(5)}, {"W4", Wheel(4)},
		{"W5", Wheel(5)}, {"K23", CompleteBipartite(2, 3)}, {"Grotzsch", Grotzsch()},
	}
	for i, in := range hard {
		h, chi3 := in.h, in.h.Colorable(3)
		add("GFD", "satisfiability", "3col/"+in.name, !chi3, func() bool {
			return checkSat(SatGFDFamily(h)).Satisfiable
		})
		if i < 3 {
			// The GFD family plus a harmless GKey: id literals in the
			// same decision.
			add("GED", "satisfiability", "3col+key/"+in.name, !chi3, func() bool {
				q := pattern.New()
				q.AddVar("a", "album")
				key, err := ged.NewGKey("k", q, "a", func(x, fx pattern.Var) []ged.Literal {
					return []ged.Literal{ged.VarLit(x, "title", fx, "title")}
				})
				if err != nil {
					t.Fatal(err)
				}
				return checkSat(append(SatGFDFamily(h), key)).Satisfiable
			})
		}
		add("GFDx", "implication", "3col/"+in.name, chi3, func() bool {
			sigma, phi := ImplGFDxFamily(h)
			return implies(sigma, phi).Implied
		})
		add("GKey", "implication", "3col/"+in.name, chi3, func() bool {
			sigma, phi := ImplGKeyFamily(h)
			return implies(sigma, phi).Implied
		})
		add("GFDx", "validation", "3col/"+in.name, !chi3, func() bool {
			return reason.Satisfies(ValidGFDxFamily(h))
		})
		add("GKey", "validation", "3col/"+in.name, !chi3, func() bool {
			return reason.Satisfies(ValidGKeyFamily(h))
		})
	}
	// Recursive keys carry no constants to conflict; GFDx sets are
	// always satisfiable (Theorem 3's O(1) row).
	add("GKey", "satisfiability", "psi1-3", true, func() bool {
		return checkSat(PaperKeys()).Satisfiable
	})
	add("GFDx", "satisfiability", "any", true, func() bool {
		sigma, _ := ImplGFDxFamily(Wheel(5))
		return checkSat(sigma).Satisfiable
	})
	// Planted workloads: a knowledge base or music catalog satisfies its
	// rules exactly when nothing was planted.
	for _, rate := range []float64{0, 0.3} {
		g, stats := KnowledgeBase(7, 50, rate)
		add("GFD", "validation", fmt.Sprintf("KB(rate=%.1f)", rate), stats.Total() == 0, func() bool {
			return reason.Satisfies(g, ged.Set{PaperPhi1(), PaperPhi2(), PaperPhi3(), PaperPhi4()})
		})
	}
	for _, rate := range []float64{0, 0.4} {
		g, stats := MusicDB(7, 40, rate)
		add("GED", "validation", fmt.Sprintf("music(rate=%.1f)", rate), stats.DupPairs == 0, func() bool {
			return reason.Satisfies(g, PaperKeys())
		})
	}

	node := func(l graph.Label) *pattern.Pattern {
		q := pattern.New()
		q.AddVar("x", l)
		return q
	}
	// GDC row (Theorem 8).
	dom := DomainGDCs("tau", "A", graph.Int(0), graph.Int(1))
	add("GDC", "satisfiability", "domain{0,1}", true, func() bool {
		return checkSat(dom).Satisfiable
	})
	add("GDC", "satisfiability", "domain-conflict", false, func() bool {
		conflict := append(ged.Set{}, dom...)
		conflict = append(conflict, ged.New("ne", dom[0].Pattern, nil, []ged.Literal{
			ged.Cmp("x", "A", ged.OpNe, graph.Int(0)),
			ged.Cmp("x", "A", ged.OpNe, graph.Int(1)),
		}))
		return checkSat(conflict).Satisfiable
	})
	lt5 := ged.New("lt5", node("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))})
	lt10 := ged.New("lt10", node("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(10))})
	add("GDC", "implication", "a<5 ⊨ a<10", true, func() bool {
		return implies(ged.Set{lt5}, lt10).Implied
	})
	add("GDC", "implication", "a<10 ⊭ a<5", false, func() bool {
		return implies(ged.Set{lt10}, lt5).Implied
	})
	// A case split on an order literal: a > 3 and a ≤ 3 both give b = 1.
	add("GDC", "implication", "a>3∨a≤3 ⊨ b=1", true, func() bool {
		b1 := []ged.Literal{ged.ConstLit("x", "b", graph.Int(1))}
		sigma := ged.Set{
			ged.New("gt3", node("p"), []ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(3))}, b1),
			ged.New("le3", node("p"), []ged.Literal{ged.Cmp("x", "a", ged.OpLe, graph.Int(3))}, b1),
			ged.New("has-a", node("p"), nil, []ged.Literal{ged.VarLit("x", "a", "x", "a")}),
		}
		return implies(sigma, ged.New("b1", node("p"), nil, b1)).Implied
	})
	add("GDC", "validation", "a=3 vs a<5", true, func() bool {
		g := graph.New()
		g.AddNodeAttrs("p", map[graph.Attr]graph.Value{"a": graph.Int(3)})
		return reason.Satisfies(g, ged.Set{lt5})
	})
	// GED∨ row (Theorem 9).
	psi := DomainGEDor("tau", "A", graph.Int(0), graph.Int(1))
	narrow := ged.NewOr("n", node("tau"), nil, []ged.Literal{ged.ConstLit("x", "A", graph.Int(0))})
	add("GED∨", "satisfiability", "domain{0,1}", true, func() bool {
		return checkSat(ged.Set{psi}).Satisfiable
	})
	add("GED∨", "implication", "A=0 ⊨ A∈{0,1}", true, func() bool {
		return implies(ged.Set{narrow}, psi).Implied
	})
	add("GED∨", "implication", "A∈{0,1} ⊭ A=0", false, func() bool {
		return implies(ged.Set{psi}, narrow).Implied
	})
	add("GED∨", "validation", "A=1 vs domain", true, func() bool {
		g := graph.New()
		g.AddNodeAttrs("tau", map[graph.Attr]graph.Value{"A": graph.Int(1)})
		return reason.Satisfies(g, ged.Set{psi})
	})
	// Mixed sets (Theorems 8 and 9 together): A ∈ {0, 1} and A > 0.5
	// leave A = 1; A > 1 leaves nothing.
	mixed := func(bound float64) ged.Set {
		return ged.Set{psi, ged.New("gt", node("tau"), nil, []ged.Literal{ged.Cmp("x", "A", ged.OpGt, graph.Number(bound))})}
	}
	add("GDC+GED∨", "satisfiability", "A∈{0,1}, A>0.5", true, func() bool {
		r := checkSat(mixed(0.5))
		if r.Satisfiable {
			if v, ok := r.Model.Attr(0, "A"); !ok || !v.Equal(graph.Int(1)) {
				t.Errorf("mixed model has A = %v, want 1", v)
			}
		}
		return r.Satisfiable
	})
	add("GDC+GED∨", "satisfiability", "A∈{0,1}, A>1", false, func() bool {
		return checkSat(mixed(1)).Satisfiable
	})

	classes, problems := map[string]bool{}, map[string]bool{}
	for _, r := range rows {
		classes[r.class], problems[r.problem] = true, true
		if got := r.decide(); got != r.want {
			t.Errorf("%s %s on %s: decided %v, ground truth %v", r.class, r.problem, r.instance, got, r.want)
		}
	}
	if len(rows) < 25 {
		t.Errorf("expected at least 25 cells, got %d", len(rows))
	}
	for _, c := range []string{"GED", "GFD", "GKey", "GFDx", "GDC", "GED∨"} {
		if !classes[c] {
			t.Errorf("class %s not covered", c)
		}
	}
	for _, p := range []string{"satisfiability", "implication", "validation"} {
		if !problems[p] {
			t.Errorf("problem %s not covered", p)
		}
	}
}

// tuple is one row of a relation instance, keyed by column.
type tuple map[graph.Attr]graph.Value

// encodeRelation represents a relation instance as a graph the way
// Section 3 (special case 5) does: one node per tuple, labeled with the
// relation name, carrying the tuple as attributes, and no edges.
func encodeRelation(rel graph.Label, ts []tuple) *graph.Graph {
	g := graph.New()
	for _, t := range ts {
		g.AddNodeAttrs(rel, t)
	}
	return g
}

// allPairs reports whether ok holds on every ordered pair of tuples,
// including a tuple paired with itself — the quantifier of FDs, CFDs,
// EGDs and denial constraints alike.
func allPairs(ts []tuple, ok func(s, t tuple) bool) bool {
	for _, s := range ts {
		for _, t := range ts {
			if !ok(s, t) {
				return false
			}
		}
	}
	return true
}

// equalOn reports that s and t carry equal values for every attribute.
func equalOn(s, t tuple, attrs ...graph.Attr) bool {
	for _, a := range attrs {
		v, ok1 := s[a]
		w, ok2 := t[a]
		if !ok1 || !ok2 || !v.Equal(w) {
			return false
		}
	}
	return true
}

// TestRelationalDependencies checks the Section 3 claim that GEDs
// subsume relational dependencies: an FD, a CFD (constant and variable
// right-hand side) and an EGD become GEDs over edgeless two-node
// patterns, and denial constraints become GDCs with a false consequent
// (Section 7.1). On every instance, validating the encoded graph must
// agree with the direct relational check — and with the instance's
// known status.
func TestRelationalDependencies(t *testing.T) {
	emp := func(name, dept, city string, salary int) tuple {
		return tuple{"name": graph.String(name), "dept": graph.String(dept), "city": graph.String(city), "salary": graph.Int(salary)}
	}
	pair := func(rel graph.Label) *pattern.Pattern {
		q := pattern.New()
		q.AddVar("s", rel).AddVar("t", rel)
		return q
	}
	cs, ny := graph.String("cs"), graph.String("ny")
	type instance struct {
		tuples []tuple
		holds  bool // the instance's known status
	}
	cases := []struct {
		name  string
		rel   graph.Label
		class ged.Class // of the GED encoding, when there is one
		geds  ged.Set
		gdcs  ged.Set
		// direct is the dependency checked on the relation itself.
		direct    func(ts []tuple) bool
		instances []instance
	}{
		{
			name: "FDViolationRoundTrip", rel: "emp", class: ged.ClassGFDx,
			// emp(dept → city)
			geds: ged.Set{ged.New("fd", pair("emp"),
				[]ged.Literal{ged.VarLit("s", "dept", "t", "dept")},
				[]ged.Literal{ged.VarLit("s", "city", "t", "city")})},
			direct: func(ts []tuple) bool {
				return allPairs(ts, func(s, t tuple) bool { return !equalOn(s, t, "dept") || equalOn(s, t, "city") })
			},
			instances: []instance{
				{[]tuple{emp("ann", "cs", "ny", 90), emp("bob", "cs", "la", 80)}, false},
				{[]tuple{emp("ann", "cs", "ny", 90), emp("bob", "cs", "ny", 80), emp("cat", "ee", "la", 85)}, true},
			},
		},
		{
			name: "CFDRoundTrip", rel: "emp", class: ged.ClassGFD,
			// (emp: dept → city, (cs ‖ ny)): cs employees are in ny; the ee
			// employee is outside the CFD's scope.
			geds: ged.Set{ged.New("cfd", pair("emp"),
				[]ged.Literal{ged.ConstLit("s", "dept", cs), ged.ConstLit("t", "dept", cs)},
				[]ged.Literal{ged.ConstLit("s", "city", ny)})},
			direct: func(ts []tuple) bool {
				return allPairs(ts, func(s, _ tuple) bool {
					return !equalOn(s, tuple{"dept": cs}, "dept") || equalOn(s, tuple{"city": ny}, "city")
				})
			},
			instances: []instance{
				{[]tuple{emp("ann", "cs", "la", 90)}, false},
				{[]tuple{emp("ann", "cs", "ny", 90), emp("bob", "ee", "la", 80)}, true},
			},
		},
		{
			name: "CFDWithVariableRHS", rel: "emp", class: ged.ClassGFD,
			// (emp: dept → city, (cs ‖ _)): cs employees agree on city.
			geds: ged.Set{ged.New("cfd", pair("emp"),
				[]ged.Literal{ged.ConstLit("s", "dept", cs), ged.ConstLit("t", "dept", cs)},
				[]ged.Literal{ged.VarLit("s", "city", "t", "city")})},
			direct: func(ts []tuple) bool {
				return allPairs(ts, func(s, t tuple) bool {
					return !equalOn(s, tuple{"dept": cs}, "dept") || !equalOn(t, tuple{"dept": cs}, "dept") || equalOn(s, t, "city")
				})
			},
			instances: []instance{
				{[]tuple{emp("ann", "cs", "ny", 90), emp("bob", "cs", "la", 80)}, false},
			},
		},
		{
			name: "EGDEncoding", rel: "r", class: ged.ClassGFDx,
			// ∀x,y,z (r(x, y) ∧ r(x, z) → y = z), as the paper's pair
			// (φ_R, φ_E): φ_R makes the body's attributes exist, φ_E
			// enforces the equality under the join.
			geds: ged.Set{
				ged.New("egd:attrs", pair("r"), nil, []ged.Literal{
					ged.VarLit("s", "a", "s", "a"), ged.VarLit("s", "b", "s", "b"),
					ged.VarLit("t", "a", "t", "a"), ged.VarLit("t", "b", "t", "b")}),
				ged.New("egd:eq", pair("r"),
					[]ged.Literal{ged.VarLit("s", "a", "t", "a")},
					[]ged.Literal{ged.VarLit("s", "b", "t", "b")}),
			},
			direct: func(ts []tuple) bool {
				return allPairs(ts, func(s, t tuple) bool {
					return equalOn(s, s, "a", "b") && (!equalOn(s, t, "a") || equalOn(s, t, "b"))
				})
			},
			instances: []instance{
				{[]tuple{{"a": graph.Int(1), "b": graph.Int(2)}, {"a": graph.Int(1), "b": graph.Int(3)}}, false},
				{[]tuple{{"a": graph.Int(1), "b": graph.Int(2)}, {"a": graph.Int(2), "b": graph.Int(3)}}, true},
			},
		},
		{
			name: "DenialConstraintEncoding", rel: "emp",
			// ¬∃ s, t: s.salary > t.salary ∧ s.dept = t.dept ∧ s.rank < t.rank
			gdcs: ged.Set{ged.New("dc", pair("emp"), []ged.Literal{
				ged.CmpVars("s", "salary", ged.OpGt, "t", "salary"),
				ged.CmpVars("s", "dept", ged.OpEq, "t", "dept"),
				ged.CmpVars("s", "rank", ged.OpLt, "t", "rank"),
			}, ged.False("s"))},
			direct: func(ts []tuple) bool {
				return allPairs(ts, func(s, t tuple) bool {
					return !(t["salary"].Less(s["salary"]) && equalOn(s, t, "dept") && s["rank"].Less(t["rank"]))
				})
			},
			instances: []instance{
				{[]tuple{
					{"salary": graph.Int(100), "dept": cs, "rank": graph.Int(1)},
					{"salary": graph.Int(90), "dept": cs, "rank": graph.Int(2)},
				}, false},
				{[]tuple{
					{"salary": graph.Int(100), "dept": cs, "rank": graph.Int(3)},
					{"salary": graph.Int(90), "dept": cs, "rank": graph.Int(2)},
				}, true},
			},
		},
		{
			name: "ConstantDCAtom", rel: "emp",
			// ¬∃ t: t.salary < 0
			gdcs: ged.Set{ged.New("dc", pair("emp"),
				[]ged.Literal{ged.Cmp("s", "salary", ged.OpLt, graph.Int(0))}, ged.False("s"))},
			direct: func(ts []tuple) bool {
				return allPairs(ts, func(s, _ tuple) bool { return !s["salary"].Less(graph.Int(0)) })
			},
			instances: []instance{
				{[]tuple{{"salary": graph.Int(-5)}}, false},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.geds.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := c.gdcs.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(c.geds) > 0 && c.geds.Classify() != c.class {
				t.Errorf("encoding class %v, want %v", c.geds.Classify(), c.class)
			}
			for i, in := range c.instances {
				g := encodeRelation(c.rel, in.tuples)
				if g.NumNodes() != len(in.tuples) || g.NumEdges() != 0 {
					t.Fatalf("instance %d: encoded shape %d nodes %d edges", i, g.NumNodes(), g.NumEdges())
				}
				direct := c.direct(in.tuples)
				validated := reason.Satisfies(g, c.geds) && reason.Satisfies(g, c.gdcs)
				if direct != in.holds || validated != direct {
					t.Errorf("instance %d: relational check %v, graph validation %v, known status %v", i, direct, validated, in.holds)
				}
			}
		})
	}
}
