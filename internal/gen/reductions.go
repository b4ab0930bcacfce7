package gen

import (
	"fmt"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// This file constructs the 3-colorability reduction families behind the
// paper's lower bounds (Theorems 3, 5 and 6). The authors defer the
// reduction details to proofs; the constructions here follow the stated
// shapes (number and form of the dependencies) and are verified against
// brute-force 3-coloring in the tests, which are the correctness
// argument.

// hVar names the pattern variable of vertex i of H.
func hVar(i int) pattern.Var { return pattern.Var(fmt.Sprintf("h%d", i)) }

// kVar names the palette pattern variables.
func kVar(i int) pattern.Var { return pattern.Var(fmt.Sprintf("k%d", i)) }

// paletteLabel is the node label shared by palette and H-pattern nodes.
const paletteLabel graph.Label = "c"

// k3Pattern returns K3^sym as a pattern: three c-nodes with all six
// directed e-edges. Homomorphisms of a symmetrically-oriented graph into
// it are exactly the proper 3-colorings.
func k3Pattern() *pattern.Pattern {
	q := pattern.New()
	for i := 0; i < 3; i++ {
		q.AddVar(kVar(i), paletteLabel)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				q.AddEdge(kVar(i), "e", kVar(j))
			}
		}
	}
	return q
}

// k3Graph returns K3^sym as a concrete graph, optionally with distinct
// a-attribute values per corner.
func k3Graph(withAttrs bool) (*graph.Graph, []graph.NodeID) {
	g := graph.New()
	ids := make([]graph.NodeID, 3)
	for i := range ids {
		ids[i] = g.AddNode(paletteLabel)
		if withAttrs {
			g.SetAttr(ids[i], "a", graph.Int(i+1))
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				g.AddEdge(ids[i], "e", ids[j])
			}
		}
	}
	return g, ids
}

// hPatternAcyclic returns H as a pattern with c-labeled nodes and each
// undirected edge oriented low→high (an acyclic orientation, so K3^sym
// cannot map into it).
func hPatternAcyclic(h *UGraph) *pattern.Pattern {
	q := pattern.New()
	for i := 0; i < h.N; i++ {
		q.AddVar(hVar(i), paletteLabel)
	}
	for _, e := range h.Edges {
		q.AddEdge(hVar(e[0]), "e", hVar(e[1]))
	}
	return q
}

// hPatternSymmetric returns H as a pattern with both edge directions, so
// its homomorphisms into K3^sym are exactly the proper 3-colorings.
func hPatternSymmetric(h *UGraph) *pattern.Pattern {
	q := pattern.New()
	for i := 0; i < h.N; i++ {
		q.AddVar(hVar(i), paletteLabel)
	}
	for _, e := range h.Edges {
		q.AddEdge(hVar(e[0]), "e", hVar(e[1]))
		q.AddEdge(hVar(e[1]), "e", hVar(e[0]))
	}
	return q
}

// requireHardnessInput panics unless H is a valid reduction input:
// connected with at least one edge (3-colorability remains NP-complete
// under these restrictions).
func requireHardnessInput(h *UGraph) {
	if len(h.Edges) == 0 || !h.Connected() {
		panic("gen: hardness reductions require a connected graph with ≥1 edge")
	}
}

// SatGFDFamily returns the satisfiability instance Σ(H) of two GFDs of
// the form Q[x̄](∅ → Y) with constant literals, per the Theorem 3 proof
// shape: Σ(H) is satisfiable iff H is NOT 3-colorable.
//
// φ_K marks every K3^sym match t = 1 on all three corners; φ_H forces
// t = 2 on (the image of) vertex 0 of an acyclically-oriented copy of H.
// If H is 3-colorable, the coloring composes with any K3 match and the
// two marks collide; otherwise the disjoint union of a concrete palette
// and a concrete copy of H is a model.
func SatGFDFamily(h *UGraph) ged.Set {
	requireHardnessInput(h)
	phiK := ged.New("phiK", k3Pattern(), nil, []ged.Literal{
		ged.ConstLit(kVar(0), "t", graph.Int(1)),
		ged.ConstLit(kVar(1), "t", graph.Int(1)),
		ged.ConstLit(kVar(2), "t", graph.Int(1)),
	})
	phiH := ged.New("phiH", hPatternAcyclic(h), nil, []ged.Literal{
		ged.ConstLit(hVar(0), "t", graph.Int(2)),
	})
	return ged.Set{phiK, phiH}
}

// ImplGFDxFamily returns the implication instance (Σ, φ) with a single
// GFDx whose literals are all variable literals, per the Theorem 5 proof
// shape: Σ ⊨ φ iff H IS 3-colorable.
//
// Σ's GFDx equates the a-attributes across every edge of (symmetric) H;
// its matches in G_{K3} are the 3-colorings, and color permutations then
// equate all three palette attributes.
func ImplGFDxFamily(h *UGraph) (ged.Set, *ged.GED) {
	requireHardnessInput(h)
	var ys []ged.Literal
	for _, e := range h.Edges {
		ys = append(ys, ged.VarLit(hVar(e[0]), "a", hVar(e[1]), "a"))
	}
	sigma := ged.Set{ged.New("phiH", hPatternSymmetric(h), nil, ys)}
	phi := ged.New("phiK3", k3Pattern(), nil, []ged.Literal{
		ged.VarLit(kVar(0), "a", kVar(1), "a"),
		ged.VarLit(kVar(0), "a", kVar(2), "a"),
	})
	return sigma, phi
}

// ImplGKeyFamily returns the implication instance (Σ, φ) where both
// dependencies are GKeys without constant literals, per the Theorem 5
// proof shape: Σ ⊨ φ iff H IS 3-colorable.
//
// Σ's GKey identifies the images of vertex 0 across any two matches of
// symmetric H; in G of φ's pattern (two disjoint palettes) its matches
// are pairs of 3-colorings, and permutations merge every palette corner
// with every other, making φ's key literal deducible.
func ImplGKeyFamily(h *UGraph) (ged.Set, *ged.GED) {
	requireHardnessInput(h)
	psiH, err := ged.NewGKey("psiH", hPatternSymmetric(h), hVar(0), nil)
	if err != nil {
		panic(err)
	}
	phi, err := ged.NewGKey("phiK3", k3Pattern(), kVar(0), nil)
	if err != nil {
		panic(err)
	}
	return ged.Set{psiH}, phi
}

// ValidGFDxFamily returns the validation instance (G, Σ) with a single
// GFDx whose consequent is one variable literal, per the Theorem 6 proof
// shape: G ⊨ Σ iff H is NOT 3-colorable.
//
// G is a concrete K3^sym with pairwise-distinct a-values; φ requires the
// endpoint images of H's first edge to agree on a, which every proper
// coloring refutes.
func ValidGFDxFamily(h *UGraph) (*graph.Graph, ged.Set) {
	requireHardnessInput(h)
	g, _ := k3Graph(true)
	e0 := h.Edges[0]
	phi := ged.New("phiH", hPatternSymmetric(h), nil, []ged.Literal{
		ged.VarLit(hVar(e0[0]), "a", hVar(e0[1]), "a"),
	})
	return g, ged.Set{phi}
}

// ValidGKeyFamily returns the validation instance (G, Σ) with a single
// GKey, per the Theorem 6 proof shape: G ⊨ Σ iff H is NOT 3-colorable.
//
// The GKey's pattern is symmetric H plus its copy with an empty
// antecedent; a proper coloring pair mapping vertex 0 to different
// corners violates the key's id literal.
func ValidGKeyFamily(h *UGraph) (*graph.Graph, ged.Set) {
	requireHardnessInput(h)
	g, _ := k3Graph(false)
	psi, err := ged.NewGKey("psiH", hPatternSymmetric(h), hVar(0), nil)
	if err != nil {
		panic(err)
	}
	return g, ged.Set{psi}
}

// Note on coverage: the paper also sketches lower-bound reductions for
// GKey/GEDx *satisfiability* ("three GKeys without constant literals").
// Those constructions hinge on proof details the paper defers; rather
// than ship an unverified gadget, GEDx/GKey satisfiability is exercised
// here through the entity-resolution workloads (workloads.go), and the
// coNP-hardness family is reproduced explicitly for GFDs (SatGFDFamily),
// matching part (a) of the paper's Theorem 3 proof sketch. What the
// measured workloads cover is listed in benchmark/README.md.
