// Package gdc decides satisfiability and implication beyond plain GEDs:
// for graph denial constraints (GDCs, Section 7.1 of "Dependencies for
// Graphs", Fan & Lu, PODS 2017), whose attribute literals compare with
// any of =, ≠, <, ≤, >, ≥, for GED∨s (Section 7.2), whose consequent is
// a disjunction, and for any set mixing them with GEDs.
//
// A GDC is a ged.GED whose attribute literals may compare with any of
// the six predicates (id literals remain equalities). GDCs can express
// relational denial constraints and "domain constraints" such as
// x.A ∈ {0, 1} (Example 9). Validation is the GEDs' own (Theorems 8
// and 9: it stays coNP-complete), through package reason.
//
// Satisfiability and implication are Σᵖ₂- and Πᵖ₂-complete. The one
// solver here mirrors that quantifier structure by branching on top of
// the GED chase: a branch is a list of facts, its equalities are chase
// seeds, and its comparisons are an order layer over the chase's value
// classes. Every positive answer is certified with the validator, and a
// resource cap makes the search return Unknown instead of diverging;
// see the Verdict type.
package gdc

import (
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// New returns the GDC Q[x̄](X → Y).
func New(name string, q *pattern.Pattern, x, y []ged.Literal) *ged.GED {
	return ged.New(name, q, x, y)
}

// DomainConstraint returns the two GDCs of Example 9 enforcing that
// every node labeled tau carries attribute a with a value among the
// given constants: φ₁ generates the attribute, φ₂ forbids other values.
func DomainConstraint(tau graph.Label, a graph.Attr, domain ...graph.Value) ged.Set {
	q1 := pattern.New()
	q1.AddVar("x", tau)
	phi1 := New("dom-exists", q1, nil, []ged.Literal{ged.VarLit("x", a, "x", a)})
	q2 := pattern.New()
	q2.AddVar("x", tau)
	var xs []ged.Literal
	for _, v := range domain {
		xs = append(xs, ged.Cmp("x", a, ged.OpNe, v))
	}
	phi2 := New("dom-forbid", q2, xs, ged.False("x"))
	return ged.Set{phi1, phi2}
}

// Verdict is a three-valued answer: the solver certifies every True with
// a concrete witness, returns False only when the branch space is
// exhausted, and Unknown when its budget runs out or a witness fails
// certification.
type Verdict uint8

const (
	// False: no witness exists in the searched space.
	False Verdict = iota
	// True: a certified witness was found.
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

// SatResult reports a satisfiability analysis.
type SatResult struct {
	// Satisfiable is the verdict; True is certified by Model.
	Satisfiable Verdict
	// Model is a concrete model of Σ when Satisfiable is True.
	Model *graph.Graph
}

// ImplResult reports an implication analysis.
type ImplResult struct {
	// Implied is the verdict; False is certified by Counterexample.
	Implied Verdict
	// Counterexample satisfies Σ but violates φ when Implied is False.
	Counterexample *graph.Graph
}
