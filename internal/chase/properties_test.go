package chase

import (
	"math/rand"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// TestChaseIdempotent: chasing a valid chase result again applies no
// further steps — the result already satisfies Σ (fixpoint property).
func TestChaseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 50; trial++ {
		g, sigma := randomInstance(rng)
		res := Run(g, sigma)
		if !res.Consistent() {
			continue
		}
		again := Run(res.Materialize(), sigma)
		if !again.Consistent() {
			t.Fatalf("trial %d: re-chasing a valid result failed", trial)
		}
		if len(again.Steps) != 0 {
			t.Fatalf("trial %d: re-chase applied %d steps; fixpoint broken", trial, len(again.Steps))
		}
	}
}

// TestChaseMonotoneInSigma: adding dependencies can only merge more —
// the node partition of chase(G, Σ) refines that of chase(G, Σ ∪ Σ′)
// when both are consistent.
func TestChaseMonotoneInSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 50; trial++ {
		g, sigma := randomInstance(rng)
		_, extra := randomInstance(rng)
		small := Run(g.Clone(), sigma)
		big := Run(g.Clone(), append(append(ged.Set{}, sigma...), extra...))
		if !small.Consistent() || !big.Consistent() {
			continue
		}
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				if small.Eq.SameNode(a, b) && !big.Eq.SameNode(a, b) {
					t.Fatalf("trial %d: larger Σ separated nodes %d, %d", trial, a, b)
				}
			}
		}
	}
}

// TestSeededSupersetOfUnseeded: the seeded chase extends the unseeded
// one — every identification made without seeds persists with them,
// when both are consistent.
func TestSeededSupersetOfUnseeded(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		g, sigma := randomInstance(rng)
		base := Run(g.Clone(), sigma)
		if !base.Consistent() {
			continue
		}
		// Seed one extra id literal between two label-compatible nodes.
		ids := g.Nodes()
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if !graph.LabelsCompatible(g.Label(a), g.Label(b)) {
			continue
		}
		q := pattern.New()
		q.AddVar("u", graph.Wildcard).AddVar("v", graph.Wildcard)
		seeded := RunSeeded(g.Clone(), sigma, []Seed{{
			Literal: ged.IDLit("u", "v"),
			Nodes:   map[pattern.Var]graph.NodeID{"u": a, "v": b},
		}})
		if !seeded.Consistent() {
			continue
		}
		for _, x := range ids {
			for _, y := range ids {
				if base.Eq.SameNode(x, y) && !seeded.Eq.SameNode(x, y) {
					t.Fatalf("trial %d: seeding separated %d, %d", trial, x, y)
				}
			}
		}
		if !seeded.Eq.SameNode(a, b) {
			t.Fatalf("trial %d: seed literal not honored", trial)
		}
	}
}

// TestCoercionPreservesMatches: every pattern match in G survives into
// the coercion (composition with the quotient map).
func TestCoercionPreservesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		g, sigma := randomInstance(rng)
		res := Run(g.Clone(), sigma)
		if !res.Consistent() {
			continue
		}
		snap := g.Freeze()
		for _, d := range sigma {
			pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
				// The composed assignment must be a match in the coercion.
				composed := make(pattern.Match, len(m))
				for v, n := range m {
					composed[v] = res.Coercion().NodeOf[n]
				}
				// Verify labels and edges directly.
				for _, v := range d.Pattern.Vars() {
					if !graph.LabelMatches(d.Pattern.Label(v), res.Coercion().Graph.Label(composed[v])) {
						t.Fatalf("trial %d: label lost in coercion", trial)
					}
				}
				for _, e := range d.Pattern.Edges() {
					ok := false
					for _, ge := range res.Coercion().Graph.Out(composed[e.Src]) {
						if ge.Dst == composed[e.Dst] && graph.LabelMatches(e.Label, ge.Label) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("trial %d: edge lost in coercion", trial)
					}
				}
				return true
			})
		}
	}
}

// TestEqClassesPartition: node classes form a partition of V.
func TestEqClassesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		g, sigma := randomInstance(rng)
		res := Run(g, sigma)
		if !res.Consistent() {
			continue
		}
		seen := map[graph.NodeID]int{}
		for rep, members := range res.Eq.NodeClasses() {
			for _, m := range members {
				seen[m]++
				if res.Eq.NodeRoot(m) != rep {
					t.Fatalf("trial %d: member %d not rooted at %d", trial, m, rep)
				}
			}
		}
		for _, id := range g.Nodes() {
			if seen[id] != 1 {
				t.Fatalf("trial %d: node %d appears %d times in the partition", trial, id, seen[id])
			}
		}
	}
}
