package reason

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// ---- shorthands over the one validator and the ctx-first analyses ----

// validate freezes g and runs the sequential scan: NewValidatorOn +
// RunCtx, as every caller that starts from a mutable graph does.
func validate(g *graph.Graph, sigma ged.Set, limit int) []Violation {
	vs, err := NewValidatorOn(g.Freeze(), sigma).RunCtx(context.Background(), limit)
	if err != nil {
		panic(err)
	}
	return vs
}

func validateParallel(g *graph.Graph, sigma ged.Set, limit, workers int) []Violation {
	vs, err := NewValidatorOn(g.Freeze(), sigma).RunParallelCtx(context.Background(), limit, workers)
	if err != nil {
		panic(err)
	}
	return vs
}

func validateTouching(g *graph.Graph, sigma ged.Set, nodes []graph.NodeID, limit int) []Violation {
	vs, err := NewValidatorOn(g.Freeze(), sigma).TouchingCtx(context.Background(), nodes, limit)
	if err != nil {
		panic(err)
	}
	return vs
}

func checkSat(sigma ged.Set) *SatResult {
	r, err := CheckSatCtx(context.Background(), sigma, 0)
	if err != nil {
		panic(err)
	}
	return r
}

func implies(sigma ged.Set, phi *ged.GED) *ImplResult {
	r, err := ImpliesCtx(context.Background(), sigma, phi, 0)
	if err != nil {
		panic(err)
	}
	return r
}

// matchOracle is validation the way the paper states it (Section 5.3),
// sharing nothing with the validator but the matcher: enumerate every
// match of each pattern as a Match map, judge every literal by name
// through ged.Holds. Violations come back in canonical order.
func matchOracle(snap *graph.Snapshot, sigma ged.Set) []Violation {
	var out []Violation
	for _, d := range sigma {
		pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
			if l := failingOn(snap, d, m); l != nil {
				out = append(out, Violation{GED: d, Match: m.Clone(), Literal: *l})
			}
			return true
		})
	}
	sortViolations(out, sigma)
	return out
}

// failingOn is the Match-map verdict on one match of d's pattern: the
// first consequent literal m fails when m ⊨ X, nil when m does not
// violate d.
func failingOn(snap *graph.Snapshot, d *ged.GED, m pattern.Match) *ged.Literal {
	for _, l := range d.X {
		if !ged.Holds(snap, l, m) {
			return nil
		}
	}
	for i := range d.Y {
		if !ged.Holds(snap, d.Y[i], m) {
			return &d.Y[i]
		}
	}
	return nil
}

// ---- Example 5 / Figure 3: satisfiability interaction ----

// fig3Phi1 is φ1 = Q1[x,y,z](x.A = x.B → y.id = z.id) with Q1 an a-node
// pointing at a b-node and a c-node.
func fig3Phi1() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b").AddVar("z", "c")
	q.AddEdge("x", "e", "y")
	q.AddEdge("x", "e", "z")
	return ged.New("phi1", q,
		[]ged.Literal{ged.VarLit("x", "A", "x", "B")},
		[]ged.Literal{ged.IDLit("y", "z")})
}

// fig3Phi2 is φ2 = Q2[x1,y1,z1,x2,y2,z2](∅ → x1.A = x1.B), Q2 being two
// wildcard-labeled copies of Q1's shape (so Q2 maps homomorphically into
// Q1 but not vice versa).
func fig3Phi2() *ged.GED {
	q := pattern.New()
	for _, i := range []string{"1", "2"} {
		x, y, z := pattern.Var("x"+i), pattern.Var("y"+i), pattern.Var("z"+i)
		q.AddVar(x, graph.Wildcard).AddVar(y, graph.Wildcard).AddVar(z, graph.Wildcard)
		q.AddEdge(x, "e", y)
		q.AddEdge(x, "e", z)
	}
	return ged.New("phi2", q, nil, []ged.Literal{ged.VarLit("x1", "A", "x1", "B")})
}

// fig3Phi2Prime extends Q2 with a connected component C2 (a d-node with
// a self-loop) so that neither Q1 nor Q'2 maps into the other.
func fig3Phi2Prime() *ged.GED {
	p := fig3Phi2()
	q := p.Pattern.Clone()
	q.AddVar("w", "d")
	q.AddEdge("w", "f", "w")
	return ged.New("phi2p", q, nil, []ged.Literal{ged.VarLit("x1", "A", "x1", "B")})
}

func TestExample5IndividuallySatisfiable(t *testing.T) {
	for _, phi := range []*ged.GED{fig3Phi1(), fig3Phi2(), fig3Phi2Prime()} {
		r := checkSat(ged.Set{phi})
		if !r.Satisfiable {
			t.Errorf("%s alone must be satisfiable", phi.Name)
			continue
		}
		if !IsModel(r.Model, ged.Set{phi}) {
			t.Errorf("%s: produced witness is not a model", phi.Name)
		}
	}
}

func TestExample5Sigma1Unsatisfiable(t *testing.T) {
	r := checkSat(ged.Set{fig3Phi1(), fig3Phi2()})
	if r.Satisfiable {
		t.Fatal("Σ1 of Example 5 must be unsatisfiable")
	}
	if r.Chase.Consistent() {
		t.Error("chase(G_Σ1, Σ1) must be inconsistent (Example 6)")
	}
}

func TestExample5Sigma2Unsatisfiable(t *testing.T) {
	// Even though Q1 and Q'2 are not homomorphic to each other, the GEDs
	// interact and Σ2 has no model (Example 5(2)).
	r := checkSat(ged.Set{fig3Phi1(), fig3Phi2Prime()})
	if r.Satisfiable {
		t.Fatal("Σ2 of Example 5 must be unsatisfiable")
	}
}

// ---- Example 7 / Figure 4: implication ----

func TestExample7Implication(t *testing.T) {
	q1 := pattern.New()
	q1.AddVar("x1", graph.Wildcard).AddVar("x2", graph.Wildcard)
	phi1 := ged.New("phi1", q1,
		[]ged.Literal{ged.VarLit("x1", "A", "x2", "A")},
		[]ged.Literal{ged.IDLit("x1", "x2")})

	q2 := pattern.New()
	q2.AddVar("x1", graph.Wildcard).AddVar("x2", graph.Wildcard)
	phi2 := ged.New("phi2", q2,
		[]ged.Literal{ged.VarLit("x1", "B", "x2", "B")},
		[]ged.Literal{ged.VarLit("x1", "A", "x1", "B")})

	q := pattern.New()
	q.AddVar("x1", graph.Wildcard).AddVar("x2", graph.Wildcard)
	q.AddVar("x3", "a").AddVar("x4", "b")
	phi := ged.New("phi", q,
		[]ged.Literal{ged.VarLit("x1", "A", "x3", "A"), ged.VarLit("x2", "B", "x4", "B")},
		[]ged.Literal{ged.IDLit("x1", "x3"), ged.IDLit("x2", "x4")})

	r := implies(ged.Set{phi1, phi2}, phi)
	if !r.Implied {
		t.Fatalf("Σ must imply φ (Example 7); missing literal: %v", r.Missing)
	}
	if r.ByInconsistency {
		t.Error("implication must come from deduction, not inconsistency")
	}
	// x3 (label a) must have been identified with wildcard-labeled x1 —
	// this is why the chase compares labels with ⪯.
	if !r.Implied {
		return
	}

	// Dropping phi2 loses the implication.
	r2 := implies(ged.Set{phi1}, phi)
	if r2.Implied {
		t.Error("φ must not follow from φ1 alone")
	}
	if r2.Missing == nil {
		t.Error("non-implication must report a missing literal")
	}
}

func TestImplicationReflexive(t *testing.T) {
	phi := fig3Phi1()
	if !implies(ged.Set{phi}, phi).Implied {
		t.Error("Σ must imply its own members")
	}
}

func TestImplicationTrivial(t *testing.T) {
	// Empty consequent is always implied; X → X likewise.
	q := pattern.New()
	q.AddVar("x", "a")
	empty := ged.New("e", q, []ged.Literal{ged.ConstLit("x", "k", graph.Int(1))}, nil)
	if !implies(nil, empty).Implied {
		t.Error("empty consequent must be implied by anything")
	}
	xx := ged.New("xx", q,
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1))})
	if !implies(nil, xx).Implied {
		t.Error("X → X must be implied by the empty set")
	}
}

func TestImplicationByInconsistency(t *testing.T) {
	// Condition (1) of Theorem 4: an unsatisfiable antecedent implies
	// anything.
	q := pattern.New()
	q.AddVar("x", "a")
	phi := ged.New("inc", q,
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1)), ged.ConstLit("x", "k", graph.Int(2))},
		[]ged.Literal{ged.ConstLit("x", "m", graph.Int(9))})
	r := implies(nil, phi)
	if !r.Implied || !r.ByInconsistency {
		t.Error("inconsistent Eq_X must imply φ vacuously")
	}
}

func TestImplicationTransitivityChain(t *testing.T) {
	// A → B and B → C implies A → C on one pattern.
	q := pattern.New()
	q.AddVar("x", "p")
	ab := ged.New("ab", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))})
	bc := ged.New("bc", q,
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))},
		[]ged.Literal{ged.ConstLit("x", "c", graph.Int(3))})
	ac := ged.New("ac", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "c", graph.Int(3))})
	if !implies(ged.Set{ab, bc}, ac).Implied {
		t.Error("transitivity chain must be implied")
	}
	if implies(ged.Set{ab}, ac).Implied {
		t.Error("dropping the middle link must lose the implication")
	}
}

func TestGKeyImplication(t *testing.T) {
	// A key on (title, release) implies the same key with a stronger
	// antecedent (title, release, label).
	q := pattern.New()
	q.AddVar("x", "album")
	k1, err := ged.NewGKey("k1", q, "x", func(x, fx pattern.Var) []ged.Literal {
		return []ged.Literal{ged.VarLit(x, "title", fx, "title"), ged.VarLit(x, "release", fx, "release")}
	})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ged.NewGKey("k2", q, "x", func(x, fx pattern.Var) []ged.Literal {
		return []ged.Literal{
			ged.VarLit(x, "title", fx, "title"),
			ged.VarLit(x, "release", fx, "release"),
			ged.VarLit(x, "label", fx, "label"),
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !implies(ged.Set{k1}, k2).Implied {
		t.Error("weaker key must imply stronger-antecedent key")
	}
	if implies(ged.Set{k2}, k1).Implied {
		t.Error("stronger-antecedent key must not imply the weaker key")
	}
}

// ---- Validation: the Example 1 / Example 3 scenarios ----

func TestValidationVideoGame(t *testing.T) {
	// φ1: a video game can only be created by programmers; the Yago3
	// Ghetto Blaster inconsistency.
	q := pattern.New()
	q.AddVar("x", "person").AddVar("y", "product")
	q.AddEdge("x", "create", "y")
	phi1 := ged.New("phi1", q,
		[]ged.Literal{ged.ConstLit("y", "type", graph.String("video game"))},
		[]ged.Literal{ged.ConstLit("x", "type", graph.String("programmer"))})

	g := graph.New()
	gibson := g.AddNodeAttrs("person", map[graph.Attr]graph.Value{
		"name": graph.String("Tony Gibson"), "type": graph.String("psychologist")})
	blaster := g.AddNodeAttrs("product", map[graph.Attr]graph.Value{
		"name": graph.String("Ghetto Blaster"), "type": graph.String("video game")})
	g.AddEdge(gibson, "create", blaster)

	vs := validate(g, ged.Set{phi1}, 0)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	if vs[0].Match["x"] != gibson {
		t.Error("violation must name the psychologist")
	}

	// Fixing the type removes the violation.
	g.SetAttr(gibson, "type", graph.String("programmer"))
	if !Satisfies(g, ged.Set{phi1}) {
		t.Error("fixed graph must satisfy φ1")
	}
}

func TestValidationTwoCapitals(t *testing.T) {
	// φ2: one country, two capitals with different names (Yago3 Finland).
	q := pattern.New()
	q.AddVar("x", "country").AddVar("y", "city").AddVar("z", "city")
	q.AddEdge("x", "capital", "y")
	q.AddEdge("x", "capital", "z")
	phi2 := ged.New("phi2", q, nil, []ged.Literal{ged.VarLit("y", "name", "z", "name")})

	g := graph.New()
	fin := g.AddNodeAttrs("country", map[graph.Attr]graph.Value{"name": graph.String("Finland")})
	hel := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("Helsinki")})
	stp := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("Saint Petersburg")})
	g.AddEdge(fin, "capital", hel)
	g.AddEdge(fin, "capital", stp)

	if Satisfies(g, ged.Set{phi2}) {
		t.Fatal("two differently-named capitals must violate φ2")
	}
}

func TestValidationInheritance(t *testing.T) {
	// φ3: if y is_a x and x has attribute A, y inherits it (birds/moa).
	q := pattern.New()
	q.AddVar("x", graph.Wildcard).AddVar("y", graph.Wildcard)
	q.AddEdge("y", "is_a", "x")
	phi3 := ged.New("phi3", q,
		[]ged.Literal{ged.VarLit("x", "can_fly", "x", "can_fly")},
		[]ged.Literal{ged.VarLit("y", "can_fly", "x", "can_fly")})

	g := graph.New()
	bird := g.AddNodeAttrs("class", map[graph.Attr]graph.Value{"can_fly": graph.String("yes")})
	moa := g.AddNodeAttrs("species", map[graph.Attr]graph.Value{"can_fly": graph.String("no")})
	g.AddEdge(moa, "is_a", bird)

	vs := validate(g, ged.Set{phi3}, 0)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1 (moa is a flightless bird)", len(vs))
	}
	// A species with no can_fly attribute at all also violates: the
	// consequent requires the attribute to exist.
	kiwi := g.AddNode("species")
	g.AddEdge(kiwi, "is_a", bird)
	g.SetAttr(moa, "can_fly", graph.String("yes"))
	vs = validate(g, ged.Set{phi3}, 0)
	if len(vs) != 1 || vs[0].Match["y"] != kiwi {
		t.Errorf("missing attribute must violate the consequent: %v", vs)
	}
}

func TestValidationForbidding(t *testing.T) {
	// φ4: nobody is both a child and a parent of the same person
	// (DBPedia's Sclater cycle).
	q := pattern.New()
	q.AddVar("x", "person").AddVar("y", "person")
	q.AddEdge("x", "child", "y")
	q.AddEdge("x", "parent", "y")
	phi4 := ged.New("phi4", q, nil, ged.False("x"))

	g := graph.New()
	philip := g.AddNode("person")
	william := g.AddNode("person")
	g.AddEdge(philip, "child", william)
	g.AddEdge(philip, "parent", william)

	vs := validate(g, ged.Set{phi4}, 0)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}

	ok := graph.New()
	a := ok.AddNode("person")
	b := ok.AddNode("person")
	ok.AddEdge(a, "child", b)
	if !Satisfies(ok, ged.Set{phi4}) {
		t.Error("plain child edge must satisfy φ4")
	}
}

func TestValidationSpamRule(t *testing.T) {
	// φ5 / Q5 with k = 2: two accounts liking the same blogs, posting
	// blogs sharing a peculiar keyword; one confirmed fake.
	q := pattern.New()
	q.AddVar("x", "account").AddVar("x2", "account")
	q.AddVar("z1", "blog").AddVar("z2", "blog")
	q.AddVar("y1", "blog").AddVar("y2", "blog")
	q.AddEdge("x", "post", "z1")
	q.AddEdge("x2", "post", "z2")
	for _, a := range []pattern.Var{"x", "x2"} {
		for _, b := range []pattern.Var{"y1", "y2"} {
			q.AddEdge(a, "like", b)
		}
	}
	phi5 := ged.New("phi5", q,
		[]ged.Literal{
			ged.ConstLit("x2", "is_fake", graph.Int(1)),
			ged.ConstLit("z1", "keyword", graph.String("cheap pills")),
			ged.ConstLit("z2", "keyword", graph.String("cheap pills")),
		},
		[]ged.Literal{ged.ConstLit("x", "is_fake", graph.Int(1))})

	g := graph.New()
	acc1 := g.AddNode("account")
	acc2 := g.AddNodeAttrs("account", map[graph.Attr]graph.Value{"is_fake": graph.Int(1)})
	b1 := g.AddNodeAttrs("blog", map[graph.Attr]graph.Value{"keyword": graph.String("cheap pills")})
	b2 := g.AddNodeAttrs("blog", map[graph.Attr]graph.Value{"keyword": graph.String("cheap pills")})
	p1 := g.AddNode("blog")
	p2 := g.AddNode("blog")
	g.AddEdge(acc1, "post", b1)
	g.AddEdge(acc2, "post", b2)
	for _, a := range []graph.NodeID{acc1, acc2} {
		for _, b := range []graph.NodeID{p1, p2} {
			g.AddEdge(a, "like", b)
		}
	}
	vs := validate(g, ged.Set{phi5}, 0)
	found := false
	for _, v := range vs {
		if v.Match["x"] == acc1 {
			found = true
		}
	}
	if !found {
		t.Error("acc1 must be caught by the spam rule")
	}
}

func TestValidationGKeyDuplicates(t *testing.T) {
	// ψ2: two albums with equal title and release violate the key when
	// they are distinct nodes.
	q := pattern.New()
	q.AddVar("x", "album")
	psi2, err := ged.NewGKey("psi2", q, "x", func(x, fx pattern.Var) []ged.Literal {
		return []ged.Literal{ged.VarLit(x, "title", fx, "title"), ged.VarLit(x, "release", fx, "release")}
	})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	a1 := g.AddNodeAttrs("album", map[graph.Attr]graph.Value{
		"title": graph.String("Bleach"), "release": graph.Int(1989)})
	a2 := g.AddNodeAttrs("album", map[graph.Attr]graph.Value{
		"title": graph.String("Bleach"), "release": graph.Int(1989)})
	vs := validate(g, ged.Set{psi2}, 0)
	if len(vs) == 0 {
		t.Fatal("duplicate albums must violate the key")
	}
	// Two "Bleach" albums by different bands (different release) are fine.
	g2 := graph.New()
	g2.AddNodeAttrs("album", map[graph.Attr]graph.Value{
		"title": graph.String("Bleach"), "release": graph.Int(1989)})
	g2.AddNodeAttrs("album", map[graph.Attr]graph.Value{
		"title": graph.String("Bleach"), "release": graph.Int(1990)})
	if !Satisfies(g2, ged.Set{psi2}) {
		t.Error("distinct releases must satisfy the key")
	}
	_ = a1
	_ = a2
}

func TestValidateLimit(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p")
	phi := ged.New("f", q, nil, []ged.Literal{ged.ConstLit("x", "k", graph.Int(1))})
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode("p")
	}
	if n := len(validate(g, ged.Set{phi}, 3)); n != 3 {
		t.Errorf("limit 3: got %d", n)
	}
	if n := len(validate(g, ged.Set{phi}, 0)); n != 10 {
		t.Errorf("no limit: got %d", n)
	}
}

// ---- Cross-checking properties ----

// TestSatModelsAreModels: whenever CheckSat reports satisfiable, the
// produced witness must actually be a model (Theorem 2's construction).
func TestSatModelsAreModels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sat, unsat := 0, 0
	for trial := 0; trial < 120; trial++ {
		sigma := randomSigma(rng)
		r := checkSat(sigma)
		if !r.Satisfiable {
			unsat++
			continue
		}
		sat++
		if !Satisfies(r.Model, sigma) {
			t.Fatalf("trial %d: witness violates Σ\nΣ: %v\nmodel:\n%s", trial, sigma, r.Model)
		}
		if !hasAllPatterns(r.Model.Freeze(), sigma) {
			t.Fatalf("trial %d: witness misses a pattern match", trial)
		}
	}
	if sat == 0 || unsat == 0 {
		t.Logf("note: sat=%d unsat=%d (want both populated for coverage)", sat, unsat)
	}
}

// TestGFDxAlwaysSatisfiable: Theorem 3's O(1) row — sets of GFDxs are
// always satisfiable (no constant or id literals, so no chase conflicts),
// and the witness CheckSat builds for them without a chase is a model.
func TestGFDxAlwaysSatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		sigma := randomSigma(rng)
		// Strip to GFDx: drop constant/id literals.
		var gfdx ged.Set
		for _, d := range sigma {
			strip := func(ls []ged.Literal) []ged.Literal {
				var out []ged.Literal
				for _, l := range ls {
					if k, _ := l.Kind(); k == ged.VarLiteral {
						out = append(out, l)
					}
				}
				return out
			}
			gfdx = append(gfdx, ged.New(d.Name, d.Pattern, strip(d.X), strip(d.Y)))
		}
		if gfdx.Classify() != ged.ClassGFDx {
			t.Fatal("stripping failed")
		}
		r := checkSat(gfdx)
		if !r.Satisfiable {
			t.Fatalf("trial %d: GFDx set reported unsatisfiable: %v", trial, gfdx)
		}
		// The model is built without a chase; it must still be one.
		if !Satisfies(r.Model, gfdx) || !hasAllPatterns(r.Model.Freeze(), gfdx) {
			t.Fatalf("trial %d: GFDx witness is not a model\nΣ: %v\nmodel:\n%s", trial, gfdx, r.Model)
		}
	}
}

// TestImplicationSoundOnRandomGraphs: if Σ ⊨ φ, then every random graph
// satisfying Σ satisfies φ.
func TestImplicationSoundOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	implied, checked := 0, 0
	for trial := 0; trial < 150; trial++ {
		sigma := randomSigma(rng)
		phi := randomSigma(rng)[0]
		r := implies(sigma, phi)
		if !r.Implied {
			continue
		}
		implied++
		for i := 0; i < 10; i++ {
			g := randomGraph(rng)
			if !Satisfies(g, sigma) {
				continue
			}
			checked++
			if !Satisfies(g, ged.Set{phi}) {
				t.Fatalf("trial %d: Σ ⊨ φ claimed but counterexample found\nΣ: %v\nφ: %v\nG:\n%s",
					trial, sigma, phi, g)
			}
		}
	}
	t.Logf("implied=%d graph-checks=%d", implied, checked)
}

func randomGraph(rng *rand.Rand) *graph.Graph {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p", "q"}
	g := graph.New()
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		id := g.AddNode(labels[rng.Intn(len(labels))])
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				g.SetAttr(id, a, graph.Int(rng.Intn(2)))
			}
		}
	}
	for i := 0; i < 2*n; i++ {
		if rng.Intn(2) == 0 {
			g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
		}
	}
	return g
}

func randomSigma(rng *rand.Rand) ged.Set {
	labels := []graph.Label{"a", "b", graph.Wildcard}
	attrs := []graph.Attr{"p", "q"}
	var sigma ged.Set
	for i := 0; i < 1+rng.Intn(2); i++ {
		q := pattern.New()
		q.AddVar("x", labels[rng.Intn(len(labels))])
		q.AddVar("y", labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			q.AddEdge("x", "e", "y")
		}
		var xs, ys []ged.Literal
		switch rng.Intn(3) {
		case 0:
			xs = append(xs, ged.VarLit("x", attrs[0], "y", attrs[0]))
		case 1:
			xs = append(xs, ged.ConstLit("x", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		}
		switch rng.Intn(4) {
		case 0:
			ys = append(ys, ged.IDLit("x", "y"))
		case 1:
			ys = append(ys, ged.ConstLit("y", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		case 2:
			ys = append(ys, ged.VarLit("x", attrs[1], "y", attrs[1]))
		case 3:
			ys = append(ys, ged.ConstLit("x", attrs[0], graph.Int(rng.Intn(2))),
				ged.ConstLit("y", attrs[0], graph.Int(rng.Intn(2))))
		}
		sigma = append(sigma, ged.New(fmt.Sprintf("r%d", i), q, xs, ys))
	}
	return sigma
}
