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

// ---- shorthands over the one validator ----

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

// matchOracle is validation the way the paper states it (Section 5.3),
// sharing nothing with the validator but the matcher: enumerate every
// match of each pattern as a Match map, judge every literal by name
// through ged.Holds. Violations come back in canonical order.
func matchOracle(snap *graph.Snapshot, sigma ged.Set) []Violation {
	var out []Violation
	for _, d := range sigma {
		pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
			if l := failingOn(snap, d, m); l != nil {
				out = append(out, Violation{GED: d, Match: m.Clone(), Literal: l})
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
