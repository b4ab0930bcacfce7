// Package gdc decides satisfiability and implication for any set of
// rules of "Dependencies for Graphs" (Fan & Lu, PODS 2017): GEDs
// (Section 5), GDCs, whose attribute literals compare with any of
// =, ≠, <, ≤, >, ≥ (Section 7.1), GED∨s, whose consequent is a
// disjunction (Section 7.2), and any mix of them. Validation is the
// GEDs' own for all three forms (Theorems 8 and 9: it stays
// coNP-complete), through package reason.
//
// For GEDs both problems are decided by the chase of a canonical graph
// (Theorems 2 and 4). With GDCs and GED∨s they are Σᵖ₂- and
// Πᵖ₂-complete, and the one solver here mirrors that quantifier
// structure by branching on top of the same chase: a branch is a list
// of facts, its equalities are chase seeds, and its comparisons are an
// order layer over the chase's value classes. On a set of GEDs the
// search never splits and is exactly the chase of the theorems.
//
// The search terminates by construction, with no cap on its work. A
// fact is an atom over the terms of the canonical graph (a node, or an
// attribute slot of a node) and the constants of Σ and φ, so there are
// finitely many. Every fact a branch pushes, forced by a consequent or chosen by
// a case split, is undecided before the push and entailed once the
// branch is chased again, and entailment only grows along a branch. So
// each push decides one more atom, and a branch is at most as deep as
// the atom count. The solver asserts both halves of that invariant
// where it pushes; a violation is an internal error, never a verdict.
//
// Every witness is built from a terminal branch. On GEDs the chase
// makes it exact; otherwise the validator certifies it. The order layer
// treats each kind of value as dense, and strings are not: a class
// bounded by two strings with no string between them (x.A > "a" and
// x.A < "a\x00") has no value, and the analysis then answers
// ErrNoWitness instead of a verdict.
package gdc

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
)

// ErrNoWitness reports that a branch of the search could not be turned
// into a witness: some value class lies strictly between two strings
// with no string between them, which the dense order layer cannot
// tell from a satisfiable gap. It is the one question the solver
// leaves open.
var ErrNoWitness = errors.New("gdc: no witness value fits between two adjacent strings")

// errInvariant marks a broken solver invariant.
var errInvariant = errors.New("gdc: internal error")

// Stats counts the work of one analysis.
type Stats struct {
	// Chases is the number of chases run.
	Chases int
	// Branches is the number of branches case splits opened.
	Branches int
	// Depth is the deepest nesting of case splits.
	Depth int
}

// SatResult reports a satisfiability analysis.
type SatResult struct {
	// Satisfiable reports whether Σ has a model.
	Satisfiable bool
	// Model is a model of Σ in which every pattern of Σ matches, when
	// Satisfiable.
	Model *graph.Graph
	// Conflict is the clash that made the chase of G_Σ inconsistent,
	// when Σ is unsatisfiable and the search never split (always so
	// for GEDs); nil otherwise.
	Conflict *chase.Conflict
	// Stats counts the search's work.
	Stats Stats
}

// ImplResult reports an implication analysis Σ ⊨ φ.
type ImplResult struct {
	// Implied reports Σ ⊨ φ.
	Implied bool
	// ByInconsistency is true when φ holds vacuously: no graph
	// satisfying Σ has a match of φ's pattern satisfying its antecedent
	// (condition (1) of Theorem 4).
	ByInconsistency bool
	// Missing is the first consequent literal of φ that the
	// counterexample's branch does not entail, when not Implied.
	Missing *ged.Literal
	// Stats counts the search's work.
	Stats Stats

	witness state // the counterexample's branch
	once    sync.Once
}

// Counterexample returns a graph that satisfies Σ and violates φ, or
// nil when Implied. It is built on the first call, so callers that read
// only the verdict never pay for it.
func (r *ImplResult) Counterexample() *graph.Graph {
	if r.witness.res == nil {
		return nil
	}
	r.once.Do(func() {
		if r.witness.model == nil {
			r.witness.model, _ = r.witness.materialize() // no order facts: cannot fail
		}
	})
	return r.witness.model
}

// CheckSat decides whether Σ has a model: a graph satisfying Σ in which
// every pattern of Σ has a match (Section 5.1). It searches the
// branching chase of the canonical graph G_Σ, which for GEDs is the
// chase of Theorem 2. A GFDx Σ (neither constant nor id literals) is
// satisfiable without a chase, Theorem 3's O(1) row: its model is G_Σ
// with every attribute Σ mentions set to one shared constant.
//
// maxRounds > 0 bounds each chase's rounds (chase.RunCtx). The error
// is ctx's on cancellation, chase.ErrDepthExceeded past the bound, or
// ErrNoWitness; the result is nil then.
func CheckSat(ctx context.Context, sigma ged.Set, maxRounds int) (*SatResult, error) {
	gs, _ := sigma.CanonicalGraph()
	if ged.RequireGED(sigma...) == nil && sigma.Classify() == ged.ClassGFDx {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &SatResult{Satisfiable: true, Model: gfdxModel(gs, sigma)}, nil
	}
	s := newSearch(ctx, gs, sigma, nil, maxRounds)
	st, err := s.result()
	if err != nil {
		return nil, err
	}
	r := &SatResult{Satisfiable: st.res != nil, Conflict: s.conflict, Stats: s.stats}
	if r.Satisfiable {
		if r.Model = st.model; r.Model == nil {
			r.Model, _ = st.materialize()
		}
	}
	return r, nil
}

// Implies decides whether Σ ⊨ φ (Section 5.2): the branching chase of
// φ's canonical graph G_Q, seeded with φ's antecedent, must entail φ's
// consequent on the identity embedding on every consistent terminal
// branch, which for GEDs is Theorem 4. A terminal branch that does not
// is a counterexample. maxRounds and the errors are CheckSat's.
func Implies(ctx context.Context, sigma ged.Set, phi *ged.GED, maxRounds int) (*ImplResult, error) {
	gq, vm := phi.Pattern.ToGraph()
	s := newSearch(ctx, gq, sigma, phi, maxRounds)
	s.vm = vm
	s.eqs = make([]chase.Seed, 0, len(phi.X))
	for _, l := range phi.X {
		s.push(chase.Seed{Literal: l, Nodes: vm})
	}
	st, err := s.result()
	if err != nil {
		return nil, err
	}
	if st.res == nil {
		return &ImplResult{Implied: true, ByInconsistency: !s.goalMet, Stats: s.stats}, nil
	}
	r := &ImplResult{Stats: s.stats, witness: st}
	for _, l := range phi.Y {
		if st.judge(l, vm, false) != entailed {
			r.Missing = &l
			break
		}
	}
	return r, nil
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
