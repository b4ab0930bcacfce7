package gedor

import (
	"gedlib/internal/chase"
	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// Verdict, SatResult and ImplResult are package gdc's: the two solvers
// answer alike.
type (
	Verdict    = gdc.Verdict
	SatResult  = gdc.SatResult
	ImplResult = gdc.ImplResult
)

// The verdicts.
const (
	False   = gdc.False
	True    = gdc.True
	Unknown = gdc.Unknown
)

// defaultBudget bounds the number of branch-chase states explored.
const defaultBudget = 100000

// branchState is one node of the disjunctive chase tree: the seed
// literals committed so far over a fixed base graph.
type branchState struct {
	base  *graph.Graph
	seeds []chase.Seed
}

func (b branchState) with(s chase.Seed) branchState {
	return branchState{base: b.base, seeds: append(append([]chase.Seed{}, b.seeds...), s)}
}

// pending is a match whose antecedent holds but no disjunct does.
type pending struct {
	d     *ged.GED
	match map[pattern.Var]graph.NodeID
}

// findPending rebuilds the relation for b and locates the first pending
// obligation, if any, matching on the chase's own attribute-free
// quotient (literals are judged on Eq). It returns the chase result for
// reuse.
func findPending(b branchState, sigma ged.Set) (*chase.Result, *pending) {
	res := chase.RunSeeded(b.base, nil, b.seeds)
	if !res.Consistent() {
		return res, nil
	}
	snap, repOf := res.Quotient()
	var found *pending
	for _, d := range sigma {
		pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
			base := make(map[pattern.Var]graph.NodeID, len(m))
			for v, cn := range m {
				base[v] = repOf[cn]
			}
			for _, l := range d.X {
				if !chase.Holds(res.Eq, l, base) {
					return true
				}
			}
			for _, l := range d.Y {
				if chase.Holds(res.Eq, l, base) {
					return true
				}
			}
			found = &pending{d: d, match: base}
			return false
		})
		if found != nil {
			break
		}
	}
	return res, found
}

// search explores the disjunctive chase tree from b for a consistent
// terminal branch, which accept judges: True with a certified graph,
// False to reject the branch, Unknown when certification fails. The
// search is False when every branch dies or is rejected.
func search(b branchState, sigma ged.Set, accept func(*chase.Result) (Verdict, *graph.Graph), budget *int, depth int) (Verdict, *graph.Graph) {
	if *budget <= 0 || depth > 200 {
		return Unknown, nil
	}
	*budget--
	res, p := findPending(b, sigma)
	if !res.Consistent() {
		return False, nil
	}
	if p == nil {
		return accept(res)
	}
	sawUnknown := false
	for _, l := range p.d.Y {
		v, m := search(b.with(chase.Seed{Literal: l, Nodes: p.match}), sigma, accept, budget, depth+1)
		switch v {
		case True:
			return True, m
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	// Every disjunct choice died; a forbidding GED∨ (empty disjunction)
	// reaches here directly.
	return False, nil
}

// CheckSat decides (three-valued) whether Σ has a model — a graph
// satisfying Σ in which every pattern of Σ has a match — by a branching
// chase over the canonical graph G_Σ. Disjunction breaks the
// Church-Rosser property, so the search tries every disjunct choice;
// a consistent terminal branch materializes into a certified model
// (mirroring Theorem 2 branch-wise), and Σ is unsatisfiable when every
// branch dies (Theorem 9's Σᵖ₂ search, with the inner ∀ discharged by
// the validator). A rule it cannot decide is reported in Err.
func CheckSat(sigma ged.Set) *SatResult {
	if err := decidable(sigma...); err != nil {
		return &SatResult{Satisfiable: Unknown, Err: err}
	}
	gs, _ := sigma.CanonicalGraph()
	budget := defaultBudget
	v, m := search(branchState{base: gs}, sigma, func(res *chase.Result) (Verdict, *graph.Graph) {
		if model := res.Materialize(); reason.Satisfies(model, sigma) {
			return True, model
		}
		return Unknown, nil // materialization artifact; should not occur
	}, &budget, 0)
	return &SatResult{Satisfiable: v, Model: m}
}

// Implies decides (three-valued) whether Σ ⊨ φ: the branching chase of
// φ's canonical graph from Eq_X by Σ must, on every consistent terminal
// branch, satisfy some disjunct of φ's consequent on the identity
// embedding. A terminal branch that does not yields a certified
// countermodel. A rule it cannot decide is reported in Err.
func Implies(sigma ged.Set, phi *ged.GED) *ImplResult {
	if err := decidable(append(ged.Set{phi}, sigma...)...); err != nil {
		return &ImplResult{Implied: Unknown, Err: err}
	}
	gq, vm := phi.Pattern.ToGraph()
	var seeds []chase.Seed
	for _, l := range phi.X {
		seeds = append(seeds, chase.SeedOf(l, vm))
	}
	budget := defaultBudget
	// A terminal branch refutes φ when its identity embedding satisfies
	// no disjunct; the countermodel must satisfy Σ and violate φ.
	v, m := search(branchState{base: gq, seeds: seeds}, sigma, func(res *chase.Result) (Verdict, *graph.Graph) {
		for _, l := range phi.Y {
			if chase.Holds(res.Eq, l, vm) {
				return False, nil // φ holds on this branch
			}
		}
		model := res.Materialize()
		if !reason.Satisfies(model, sigma) || reason.Satisfies(model, ged.Set{phi}) {
			return Unknown, nil
		}
		return True, model
	}, &budget, 0)
	switch v {
	case True:
		return &ImplResult{Implied: False, Counterexample: m}
	case Unknown:
		return &ImplResult{Implied: Unknown}
	default:
		return &ImplResult{Implied: True}
	}
}
