// Package reason implements the three classical static analyses of GEDs
// from Section 5 of "Dependencies for Graphs" (Fan & Lu, PODS 2017):
//
//   - satisfiability (Section 5.1, Theorem 2): does Σ have a model — a
//     graph satisfying Σ in which every pattern of Σ has a match?
//   - implication (Section 5.2, Theorem 4): does every finite graph
//     satisfying Σ also satisfy φ?
//   - validation (Section 5.3): does a given graph satisfy Σ, and if
//     not, which matches violate which literals?
//
// Satisfiability and implication are decided through the revised chase,
// exactly as the paper's characterizations prescribe; both are
// intractable in general (coNP-complete and NP-complete, Theorems 3
// and 5), which here surfaces as worst-case exponential match
// enumeration inside the chase.
package reason

import (
	"context"
	"maps"
	"slices"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// SatResult reports a satisfiability analysis.
type SatResult struct {
	// Satisfiable reports whether Σ has a model.
	Satisfiable bool
	// Chase is the chase of the canonical graph G_Σ (Theorem 2).
	Chase *chase.Result
	// Model is a concrete witness graph when satisfiable: the
	// materialized coercion of the terminal chase, which satisfies Σ and
	// matches every pattern of Σ.
	Model *graph.Graph
}

// CheckSatCtx decides whether Σ is satisfiable in the strong sense of
// Section 5.1, by chasing the canonical graph G_Σ (Theorem 2: Σ is
// satisfiable iff chase(G_Σ, Σ) is consistent). It takes an optional
// chase round bound (see chase.RunCtx); on cancellation, an exceeded
// bound or a Σ that is not all GEDs the error is non-nil and the result
// is not meaningful.
//
// A GFDx Σ (neither constant nor id literals) is satisfiable without a
// chase — Theorem 3's O(1) row — and its model is built directly: G_Σ
// with every attribute Σ mentions set to one shared constant. Chase is
// nil then.
func CheckSatCtx(ctx context.Context, sigma ged.Set, maxRounds int) (*SatResult, error) {
	gs, _ := sigma.CanonicalGraph()
	if ged.RequireGED(sigma...) == nil && sigma.Classify() == ged.ClassGFDx {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &SatResult{Satisfiable: true, Model: gfdxModel(gs, sigma)}, nil
	}
	res, err := chase.RunCtx(ctx, gs, sigma, nil, maxRounds)
	if err != nil {
		return nil, err
	}
	out := &SatResult{Satisfiable: res.Consistent(), Chase: res}
	if res.Consistent() {
		out.Model = res.Materialize()
	}
	return out, nil
}

// gfdxModel materializes G_Σ (wildcard labels made fresh, as for any
// chase model) and sets every attribute Σ mentions to one constant on
// every node. Every x.A = y.B literal then holds on every match, so the
// graph satisfies Σ, and each pattern matches its own component.
func gfdxModel(gs *graph.Graph, sigma ged.Set) *graph.Graph {
	mentioned := make(map[graph.Attr]bool)
	for _, d := range sigma {
		for _, l := range slices.Concat(d.X, d.Y) {
			mentioned[l.Left.Attr], mentioned[l.Right.Attr] = true, true
		}
	}
	attrs := slices.Sorted(maps.Keys(mentioned))
	model := chase.Run(gs, nil).Materialize()
	for _, n := range model.Nodes() {
		for _, a := range attrs {
			model.SetAttr(n, a, graph.Int(0))
		}
	}
	return model
}

// ImplResult reports an implication analysis.
type ImplResult struct {
	// Implied reports Σ ⊨ φ.
	Implied bool
	// ByInconsistency is true when condition (1) of Theorem 4 applied:
	// chase(G_Q, Eq_X, Σ) is inconsistent, so no graph satisfying Σ has
	// a match of Q satisfying X, and φ holds vacuously.
	ByInconsistency bool
	// Chase is the chase of φ's canonical graph seeded with Eq_X.
	Chase *chase.Result
	// Missing is the first consequent literal that could not be deduced
	// when Implied is false.
	Missing *ged.Literal
}

// ImpliesCtx decides Σ ⊨ φ by Theorem 4: chase the canonical graph G_Q
// of φ's pattern starting from Eq_X; φ is implied iff the chase is
// inconsistent, or it is consistent and every literal of Y can be
// deduced from its result. It takes an optional chase round bound (see
// chase.RunCtx); on cancellation or an exceeded bound the error is
// non-nil and the result is not meaningful. Σ and φ must be GEDs (the
// error wraps ged.ErrNotGED otherwise).
func ImpliesCtx(ctx context.Context, sigma ged.Set, phi *ged.GED, maxRounds int) (*ImplResult, error) {
	if err := ged.RequireGED(phi); err != nil {
		return nil, err
	}
	gq, vm := phi.Pattern.ToGraph()
	seeds := make([]chase.Seed, 0, len(phi.X))
	for _, l := range phi.X {
		seeds = append(seeds, chase.SeedOf(l, vm))
	}
	res, err := chase.RunCtx(ctx, gq, sigma, seeds, maxRounds)
	if err != nil {
		return nil, err
	}
	if !res.Consistent() {
		return &ImplResult{Implied: true, ByInconsistency: true, Chase: res}, nil
	}
	for _, l := range phi.Y {
		if !res.Deduced(l, vm) {
			ll := l
			return &ImplResult{Implied: false, Chase: res, Missing: &ll}, nil
		}
	}
	return &ImplResult{Implied: true, Chase: res}, nil
}

// Violation is one witness that G ⊭ Σ: a match of a rule's pattern that
// satisfies X but fails the given consequent literal (for forbidding
// constraints the failed literal is part of the false desugaring).
type Violation struct {
	// GED is the violated rule, of any Form.
	GED *ged.GED
	// Match is the violating match h(x̄).
	Match pattern.Match
	// Literal is the first consequent literal not satisfied. A
	// disjunctive rule's match fails every disjunct and names the first;
	// an empty disjunction names the false desugaring's first literal.
	Literal ged.Literal
}

// Satisfies reports G ⊨ Σ (Section 5.3), freezing g once.
func Satisfies(g *graph.Graph, sigma ged.Set) bool {
	return satisfies(g.Freeze(), sigma)
}

func satisfies(snap *graph.Snapshot, sigma ged.Set) bool {
	vs, _ := NewValidatorOn(snap, sigma).RunCtx(context.Background(), 1)
	return len(vs) == 0
}

// hasAllPatterns verifies the "strong" part of Section 5.1's model
// definition: every pattern of Σ has a match in snap. CheckSatCtx's
// models have this by construction.
func hasAllPatterns(snap *graph.Snapshot, sigma ged.Set) bool {
	for _, d := range sigma {
		found := false
		pattern.ForEachMatch(d.Pattern, snap, func(pattern.Match) bool {
			found = true
			return false
		})
		if !found {
			return false
		}
	}
	return true
}

// IsModel reports whether g is a model of Σ: g ⊨ Σ and every pattern of
// Σ has a match in g.
func IsModel(g *graph.Graph, sigma ged.Set) bool {
	snap := g.Freeze()
	return satisfies(snap, sigma) && hasAllPatterns(snap, sigma)
}
