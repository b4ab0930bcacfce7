package reason

import (
	"math/rand"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
)

func TestValidateTouchingFindsNewViolation(t *testing.T) {
	g, stats := gen.KnowledgeBase(13, 30, 0)
	if stats.Total() != 0 {
		t.Fatal("expected a clean KB")
	}
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	if !Satisfies(g, sigma) {
		t.Fatal("clean KB must validate")
	}
	// Break one creator.
	var dev graph.NodeID = -1
	for _, id := range g.Nodes() {
		if v, ok := g.Attr(id, "type"); ok && v.Equal(graph.String("programmer")) {
			dev = id
			break
		}
	}
	if dev < 0 {
		t.Fatal("no programmer found")
	}
	g.SetAttr(dev, "type", graph.String("psychologist"))

	inc := validateTouching(g, sigma, []graph.NodeID{dev}, 0)
	full := validate(g, sigma, 0)
	if len(inc) != len(full) {
		t.Fatalf("incremental found %d, full %d", len(inc), len(full))
	}
	if len(inc) == 0 {
		t.Fatal("the broken creator must be reported")
	}
}

// TestValidateTouchingEqualsFullOnRandomUpdates: after mutating a few
// nodes of a clean-ish graph, incremental (over the touched nodes) and
// full validation agree on all violations touching them; and every new
// violation touches a mutated node.
func TestValidateTouchingEqualsFullOnRandomUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		before := canonViolations(validate(g, sigma, 0), sigma)

		// Mutate 1-2 nodes.
		var touched []graph.NodeID
		for k := 0; k < 1+rng.Intn(2); k++ {
			n := graph.NodeID(rng.Intn(g.NumNodes()))
			g.SetAttr(n, "p", graph.Int(rng.Intn(2)))
			touched = append(touched, n)
		}
		full := validate(g, sigma, 0)
		inc := validateTouching(g, sigma, touched, 0)

		// Every violation in full that touches a mutated node must be in
		// inc, and vice versa.
		touchedSet := map[graph.NodeID]bool{}
		for _, n := range touched {
			touchedSet[n] = true
		}
		var fullTouching []Violation
		for _, v := range full {
			for _, x := range v.GED.Pattern.Vars() {
				if touchedSet[v.Match[x]] {
					fullTouching = append(fullTouching, v)
					break
				}
			}
		}
		a := canonViolations(fullTouching, sigma)
		b := canonViolations(inc, sigma)
		if len(a) != len(b) {
			t.Fatalf("trial %d: touching sets differ: full=%d inc=%d (before=%d)",
				trial, len(a), len(b), len(before))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: touching sets differ at %d", trial, i)
			}
		}
	}
}

// failingLiteral re-checks a recorded violation against a later
// snapshot and returns the evidence: the match must still exist (labels
// and edges), the antecedent must still hold, and the first consequent
// literal that fails is returned. It may differ from the recorded
// v.Literal — an update can fix the recorded literal while breaking
// another — which is why maintained stores refresh their entries.
func failingLiteral(snap *graph.Snapshot, v Violation) (ged.Literal, bool) {
	p := v.GED.Pattern
	for _, x := range p.Vars() {
		n, ok := v.Match[x]
		if !ok || int(n) >= snap.NumNodes() || !graph.LabelMatches(p.Label(x), snap.Label(n)) {
			return ged.Literal{}, false
		}
	}
	for _, e := range p.Edges() {
		src, dst := v.Match[e.Src], v.Match[e.Dst]
		if e.Label == graph.Wildcard && !snap.HasAnyEdge(src, dst) ||
			e.Label != graph.Wildcard && !snap.HasEdge(src, e.Label, dst) {
			return ged.Literal{}, false
		}
	}
	if l := failingOn(snap, v.GED, v.Match); l != nil {
		return *l, true
	}
	return ged.Literal{}, false
}

// stillViolating is failingLiteral's verdict alone.
func stillViolating(snap *graph.Snapshot, v Violation) bool {
	_, ok := failingLiteral(snap, v)
	return ok
}

func TestStillViolating(t *testing.T) {
	g := graph.New()
	dev := g.AddNodeAttrs("person", map[graph.Attr]graph.Value{"type": graph.String("psychologist")})
	game := g.AddNodeAttrs("product", map[graph.Attr]graph.Value{"type": graph.String("video game")})
	g.AddEdge(dev, "create", game)
	sigma := ged.Set{gen.PaperPhi1()}
	vs := validate(g, sigma, 0)
	if len(vs) != 1 {
		t.Fatal("expected one violation")
	}
	if !stillViolating(g.Freeze(), vs[0]) {
		t.Error("fresh violation must still be violating")
	}
	// Repairing the attribute clears it.
	g.SetAttr(dev, "type", graph.String("programmer"))
	if stillViolating(g.Freeze(), vs[0]) {
		t.Error("repaired violation must clear")
	}
	// Breaking the antecedent also clears it.
	g.SetAttr(dev, "type", graph.String("psychologist"))
	g.SetAttr(game, "type", graph.String("board game"))
	if stillViolating(g.Freeze(), vs[0]) {
		t.Error("antecedent no longer holds; violation must clear")
	}
}

func TestValidateTouchingDedup(t *testing.T) {
	// A match touching two affected nodes is reported once.
	g := graph.New()
	c := g.AddNodeAttrs("country", map[graph.Attr]graph.Value{})
	y := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("A")})
	z := g.AddNodeAttrs("city", map[graph.Attr]graph.Value{"name": graph.String("B")})
	g.AddEdge(c, "capital", y)
	g.AddEdge(c, "capital", z)
	sigma := ged.Set{gen.PaperPhi2()}
	inc := validateTouching(g, sigma, []graph.NodeID{y, z, c}, 0)
	full := validate(g, sigma, 0)
	if len(inc) != len(full) {
		t.Errorf("dedup broken: inc=%d full=%d", len(inc), len(full))
	}
}
