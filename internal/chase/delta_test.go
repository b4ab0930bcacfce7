package chase

import (
	"context"
	"math/rand"
	"testing"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// TestDeltaChaseEquivalentToRefreeze: the delta-maintained live
// coercion and the legacy per-round refreeze compute the same chase —
// same consistency verdict, same node partition, same derived attribute
// constants (Theorem 1's Church–Rosser property makes these the full
// semantic content of the result).
func TestDeltaChaseEquivalentToRefreeze(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 120; trial++ {
		g, sigma := randomInstance(rng)
		delta, err1 := RunCtxOpts(ctx, g, sigma, nil, 0, Options{})
		refreeze, err2 := RunCtxOpts(ctx, g, sigma, nil, 0, Options{RefreezeEachRound: true})
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, err1, err2)
		}
		if delta.Consistent() != refreeze.Consistent() {
			t.Fatalf("trial %d: consistency differs: delta=%v refreeze=%v",
				trial, delta.Consistent(), refreeze.Consistent())
		}
		if !delta.Consistent() {
			continue
		}
		attrs := []graph.Attr{"p", "q"}
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				if delta.Eq.SameNode(a, b) != refreeze.Eq.SameNode(a, b) {
					t.Fatalf("trial %d: partition differs at (%d,%d)", trial, a, b)
				}
			}
			for _, at := range attrs {
				dv, dok := delta.Eq.AttrConst(a, at)
				rv, rok := refreeze.Eq.AttrConst(a, at)
				if dok != rok || (dok && !dv.Equal(rv)) {
					t.Fatalf("trial %d: AttrConst(%d,%s) differs: (%v,%v) vs (%v,%v)",
						trial, a, at, dv, dok, rv, rok)
				}
			}
		}
		// Both coercions quotient the same partition over the same base
		// graph, so the materialized witnesses must coincide.
		if delta.Materialize().String() != refreeze.Materialize().String() {
			t.Fatalf("trial %d: materialized witnesses differ", trial)
		}
	}
}

// TestDeltaChaseSeeded runs the same equivalence over seeded chases,
// which exercise merges applied before the live coercion exists.
func TestDeltaChaseSeeded(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 60; trial++ {
		g, sigma := randomInstance(rng)
		if len(sigma) == 0 || g.NumNodes() < 2 {
			continue
		}
		nodes := make(map[pattern.Var]graph.NodeID)
		for _, v := range instanceVars {
			nodes[v] = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		seeds := []Seed{{Literal: sigma[0].Y[0], Nodes: nodes}}
		delta, _ := RunCtxOpts(ctx, g, sigma, seeds, 0, Options{})
		refreeze, _ := RunCtxOpts(ctx, g, sigma, seeds, 0, Options{RefreezeEachRound: true})
		if delta.Consistent() != refreeze.Consistent() {
			t.Fatalf("trial %d: consistency differs", trial)
		}
		if !delta.Consistent() {
			continue
		}
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				if delta.Eq.SameNode(a, b) != refreeze.Eq.SameNode(a, b) {
					t.Fatalf("trial %d: partition differs at (%d,%d)", trial, a, b)
				}
			}
		}
	}
}
