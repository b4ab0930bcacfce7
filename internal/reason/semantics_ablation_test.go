package reason

import (
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// validateInjective is validation under subgraph-isomorphism semantics
// — the ablation baseline of [19, 23] the paper argues against.
func validateInjective(g *graph.Graph, sigma ged.Set, limit int) []Violation {
	var out []Violation
	snap := g.Freeze()
	for _, d := range sigma {
		pattern.ForEachMatchInjective(d.Pattern, snap, func(m pattern.Match) bool {
			if l := failingOn(snap, d, m); l != nil {
				out = append(out, Violation{GED: d, Match: m.Clone(), Literal: l})
			}
			return limit <= 0 || len(out) < limit
		})
	}
	return out
}

// TestIsomorphismMakesRecursiveKeysVacuous reproduces the paper's
// Section 3 argument for homomorphism semantics: ψ₃ identifies artists
// via the ids of a shared album (X₈ contains x.id = x'.id), which an
// injective match can never satisfy — so under isomorphism the key
// catches nothing, while under homomorphism it catches the duplicate.
func TestIsomorphismMakesRecursiveKeysVacuous(t *testing.T) {
	// One album recorded by two artist nodes with the same name — a
	// duplicate ψ₃ should catch.
	g := graph.New()
	album := g.AddNodeAttrs("album", map[graph.Attr]graph.Value{"title": graph.String("Bleach")})
	a1 := g.AddNodeAttrs("artist", map[graph.Attr]graph.Value{"name": graph.String("Nirvana")})
	a2 := g.AddNodeAttrs("artist", map[graph.Attr]graph.Value{"name": graph.String("Nirvana")})
	g.AddEdge(album, "by", a1)
	g.AddEdge(album, "by", a2)

	psi3 := gen.PaperPsi3()

	hom := validate(g, ged.Set{psi3}, 0)
	if len(hom) == 0 {
		t.Fatal("homomorphism semantics must catch the duplicate artist")
	}
	iso := validateInjective(g, ged.Set{psi3}, 0)
	if len(iso) != 0 {
		t.Fatalf("under isomorphism ψ₃ should be vacuous (X₈ needs x = x'), got %d violations", len(iso))
	}
}

// TestIsomorphismUoEKeyHasNoSensibleMatches reproduces the "UoE"
// example: the key Q[x,y](∅ → x.id = y.id) over two same-labeled nodes.
// Under homomorphism a single-node graph satisfies it (x and y map to
// the same node); under isomorphism the pattern needs two distinct
// nodes, so the key forbids any graph with ≥ 2 UoE nodes from being a
// model while a 1-node graph has no injective match at all.
func TestIsomorphismUoEKeyHasNoSensibleMatches(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "UoE").AddVar("y", "UoE")
	key := ged.New("uoe", q, nil, []ged.Literal{ged.IDLit("x", "y")})

	single := graph.New()
	single.AddNode("UoE")
	// Homomorphism: one match (x = y), key satisfied, pattern matched —
	// a model in the paper's strong sense.
	if !IsModel(single, ged.Set{key}) {
		t.Fatal("single-node graph must be a model under homomorphism")
	}
	// Isomorphism: no injective match exists on one node.
	if n := pattern.CountMatchesInjective(q, single.Freeze()); n != 0 {
		t.Fatalf("injective matches on a single node: %d", n)
	}
	// And with two nodes, every injective match violates the key.
	double := graph.New()
	double.AddNode("UoE")
	double.AddNode("UoE")
	if vs := validateInjective(double, ged.Set{key}, 0); len(vs) == 0 {
		t.Fatal("two distinct UoE nodes must violate under isomorphism")
	}
}

// TestInjectiveCountsSubsetOfHomomorphism: injective matches are always
// a subset; the triangle-into-K3 counts match the combinatorial truth.
func TestInjectiveCountsSubsetOfHomomorphism(t *testing.T) {
	g := graph.New()
	ids := make([]graph.NodeID, 3)
	for i := range ids {
		ids[i] = g.AddNode("c")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				g.AddEdge(ids[i], "e", ids[j])
			}
		}
	}
	// A path of two e-edges: 12 homs, 6 injective (ordered triples).
	q := pattern.New()
	q.AddVar("a", "c").AddVar("b", "c").AddVar("d", "c")
	q.AddEdge("a", "e", "b")
	q.AddEdge("b", "e", "d")
	snap := g.Freeze()
	hom := 0
	pattern.ForEachMatch(q, snap, func(pattern.Match) bool {
		hom++
		return true
	})
	inj := pattern.CountMatchesInjective(q, snap)
	if hom != 12 || inj != 6 {
		t.Fatalf("path counts: hom=%d inj=%d, want 12/6", hom, inj)
	}
}
