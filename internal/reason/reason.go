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

// CheckSat decides whether Σ is satisfiable in the strong sense of
// Section 5.1, by chasing the canonical graph G_Σ (Theorem 2: Σ is
// satisfiable iff chase(G_Σ, Σ) is consistent).
func CheckSat(sigma ged.Set) *SatResult {
	out, _ := CheckSatCtx(context.Background(), sigma, 0)
	return out
}

// CheckSatCtx is CheckSat with cooperative cancellation and an optional
// chase round bound (see chase.RunCtx). On cancellation or an exceeded
// bound the error is non-nil and the result is not meaningful.
func CheckSatCtx(ctx context.Context, sigma ged.Set, maxRounds int) (*SatResult, error) {
	gs, _ := sigma.CanonicalGraph()
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

// DecideSat answers only the yes/no satisfiability question. For GFDx
// sets it returns true in O(1) beyond the syntactic class scan: with
// neither constant nor id literals no chase step can conflict, exactly
// the O(1) row of Theorem 3. Other classes fall back to the chase.
func DecideSat(sigma ged.Set) bool {
	if sigma.Classify() == ged.ClassGFDx {
		return true
	}
	gs, _ := sigma.CanonicalGraph()
	return chase.Run(gs, sigma).Consistent()
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

// Implies decides Σ ⊨ φ by Theorem 4: chase the canonical graph G_Q of
// φ's pattern starting from Eq_X; φ is implied iff the chase is
// inconsistent, or it is consistent and every literal of Y can be
// deduced from its result.
func Implies(sigma ged.Set, phi *ged.GED) *ImplResult {
	out, _ := ImpliesCtx(context.Background(), sigma, phi, 0)
	return out
}

// ImpliesCtx is Implies with cooperative cancellation and an optional
// chase round bound (see chase.RunCtx).
func ImpliesCtx(ctx context.Context, sigma ged.Set, phi *ged.GED, maxRounds int) (*ImplResult, error) {
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

// Violation is one witness that G ⊭ Σ: a match of a GED's pattern that
// satisfies X but fails the given consequent literal (for forbidding
// constraints the failed literal is part of the false desugaring).
type Violation struct {
	// GED is the violated dependency.
	GED *ged.GED
	// Match is the violating match h(x̄).
	Match pattern.Match
	// Literal is the first consequent literal not satisfied.
	Literal ged.Literal
}

// Validate finds violations of Σ in G, up to limit (limit <= 0 means
// all). G ⊨ Σ iff the result is empty (Section 5.3).
func Validate(g *graph.Graph, sigma ged.Set, limit int) []Violation {
	out, _ := ValidateCtx(context.Background(), g, sigma, limit)
	return out
}

// ValidateCtx is Validate with cooperative cancellation: ctx is checked
// between candidate matches and, via the matcher's abort hook, inside
// the backtracking search itself — so a cancelled context aborts even a
// match-free exponential exploration. The violations found so far are
// returned alongside ctx's error.
//
// The graph is frozen once into a read-only snapshot shared across all
// of Σ's match enumerations; to validate against a pre-built snapshot
// (or directly against the mutable graph) use ValidateOnCtx.
func ValidateCtx(ctx context.Context, g *graph.Graph, sigma ged.Set, limit int) ([]Violation, error) {
	return ValidateOnCtx(ctx, g.Freeze(), sigma, limit)
}

// ValidateOnCtx is ValidateCtx over any matcher host: a frozen
// *graph.Snapshot (the fast path) or a mutable *graph.Graph. With
// limit <= 0 both hosts return exactly the same violation sets; a
// positive limit truncates in enumeration order, which may differ
// between hosts (snapshots enumerate neighbors in (label, id) order,
// graphs in insertion order), so the reported prefix can differ even
// though the full sets agree. Plans and literals are compiled per call;
// a Validator keeps them.
func ValidateOnCtx(ctx context.Context, h pattern.Host, sigma ged.Set, limit int) ([]Violation, error) {
	return newValidator(h, sigma).RunCtx(ctx, limit)
}

// Satisfies reports G ⊨ Σ.
func Satisfies(g *graph.Graph, sigma ged.Set) bool {
	return len(Validate(g, sigma, 1)) == 0
}

// HoldsInGraph evaluates h(x̄) ⊨ l directly against the stored attribute
// values of the host (a graph or a snapshot), with the paper's existence
// semantics: a literal over a missing attribute is false. It resolves
// variables and attributes by name on every call: validation over a
// snapshot runs on CompiledRule instead and keeps this for mutable
// hosts, for re-checking a recorded Violation, and as the oracle the
// differential tests compare the compiled path against.
func HoldsInGraph(h pattern.Host, l ged.Literal, m pattern.Match) bool {
	k, ok := l.Kind()
	if !ok {
		panic("reason: non-GED literal in validation")
	}
	switch k {
	case ged.ConstLiteral:
		v, ok := h.Attr(m[l.Left.Var], l.Left.Attr)
		return ok && v.Equal(l.Right.Const)
	case ged.VarLiteral:
		v1, ok1 := h.Attr(m[l.Left.Var], l.Left.Attr)
		v2, ok2 := h.Attr(m[l.Right.Var], l.Right.Attr)
		return ok1 && ok2 && v1.Equal(v2)
	default:
		return m[l.Left.Var] == m[l.Right.Var]
	}
}

// ModelHasAllPatterns verifies the "strong" part of Section 5.1's model
// definition: every pattern of Σ has a match in g. CheckSat's models
// have this by construction; the check is exposed for tests and tools.
func ModelHasAllPatterns(g *graph.Graph, sigma ged.Set) bool {
	h := g.Freeze()
	for _, d := range sigma {
		if !pattern.HasMatch(d.Pattern, h) {
			return false
		}
	}
	return true
}

// IsModel reports whether g is a model of Σ: g ⊨ Σ and every pattern of
// Σ has a match in g.
func IsModel(g *graph.Graph, sigma ged.Set) bool {
	return Satisfies(g, sigma) && ModelHasAllPatterns(g, sigma)
}
