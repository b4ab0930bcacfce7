package gedor

import (
	"gedlib/internal/chase"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Verdict is a three-valued answer, as in package gdc.
type Verdict uint8

const (
	// False: exhaustively refuted.
	False Verdict = iota
	// True: certified by a witness.
	True
	// Unknown: the search was cut off.
	Unknown
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// defaultBudget bounds the number of branch-chase states explored.
const defaultBudget = 100000

// SatResult reports a GED∨ satisfiability analysis.
type SatResult struct {
	// Satisfiable is the verdict; True is certified by Model.
	Satisfiable Verdict
	// Model is a model of Σ when satisfiable.
	Model *graph.Graph
}

// ImplResult reports a GED∨ implication analysis.
type ImplResult struct {
	// Implied is the verdict; False is certified by Counterexample.
	Implied Verdict
	// Counterexample satisfies Σ and violates φ when Implied is False.
	Counterexample *graph.Graph
}

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
	d     *GEDor
	match map[pattern.Var]graph.NodeID
}

// findPending rebuilds the relation for b and locates the first pending
// obligation, if any, matching on the chase's own attribute-free
// quotient (literals are judged on Eq). It returns the chase result for
// reuse.
func findPending(b branchState, sigma Set) (*chase.Result, *pending) {
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

// solveSat explores the disjunctive chase tree looking for a consistent
// terminal branch.
func solveSat(b branchState, sigma Set, budget *int, depth int) (Verdict, *graph.Graph) {
	if *budget <= 0 || depth > 200 {
		return Unknown, nil
	}
	*budget--
	res, p := findPending(b, sigma)
	if !res.Consistent() {
		return False, nil
	}
	if p == nil {
		// Terminal branch: materialize and certify.
		model := res.Materialize()
		if Satisfies(model, sigma) {
			return True, model
		}
		return Unknown, nil // materialization artifact; should not occur
	}
	sawUnknown := false
	for _, l := range p.d.Y {
		v, m := solveSat(b.with(chase.Seed{Literal: l, Nodes: p.match}), sigma, budget, depth+1)
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
// the validator).
func CheckSat(sigma Set) *SatResult {
	gs, _ := sigma.CanonicalGraph()
	budget := defaultBudget
	v, m := solveSat(branchState{base: gs}, sigma, &budget, 0)
	return &SatResult{Satisfiable: v, Model: m}
}

// Implies decides (three-valued) whether Σ ⊨ φ: the branching chase of
// φ's canonical graph from Eq_X by Σ must, on every consistent terminal
// branch, satisfy some disjunct of φ's consequent on the identity
// embedding. A terminal branch that does not yields a certified
// countermodel.
func Implies(sigma Set, phi *GEDor) *ImplResult {
	gq, vm := phi.Pattern.ToGraph()
	var seeds []chase.Seed
	for _, l := range phi.X {
		seeds = append(seeds, chase.SeedOf(l, vm))
	}
	budget := defaultBudget
	v, m := refute(branchState{base: gq, seeds: seeds}, sigma, phi, vm, &budget, 0)
	switch v {
	case True:
		return &ImplResult{Implied: False, Counterexample: m}
	case Unknown:
		return &ImplResult{Implied: Unknown}
	default:
		return &ImplResult{Implied: True}
	}
}

// refute searches for a consistent terminal branch whose identity
// embedding of φ's pattern satisfies X but no disjunct of Y.
func refute(b branchState, sigma Set, phi *GEDor, vm map[pattern.Var]graph.NodeID, budget *int, depth int) (Verdict, *graph.Graph) {
	if *budget <= 0 || depth > 200 {
		return Unknown, nil
	}
	*budget--
	res, p := findPending(b, sigma)
	if !res.Consistent() {
		return False, nil // vacuous branch: no countermodel here
	}
	if p == nil {
		// Terminal: does the identity embedding falsify φ?
		for _, l := range phi.Y {
			if chase.Holds(res.Eq, l, vm) {
				return False, nil // φ holds on this branch
			}
		}
		model := res.Materialize()
		// Certify: the countermodel must satisfy Σ and violate φ.
		if !Satisfies(model, sigma) {
			return Unknown, nil
		}
		if len(Validate(model, Set{phi}, 1)) == 0 {
			return Unknown, nil
		}
		return True, model
	}
	sawUnknown := false
	for _, l := range p.d.Y {
		v, m := refute(b.with(chase.Seed{Literal: l, Nodes: p.match}), sigma, phi, vm, budget, depth+1)
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
	return False, nil
}
