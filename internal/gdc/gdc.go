// Package gdc decides satisfiability and implication of graph denial
// constraints (GDCs), the extension of GEDs with built-in predicates
// =, ≠, <, ≤, >, ≥ from Section 7.1 of "Dependencies for Graphs"
// (Fan & Lu, PODS 2017).
//
// A GDC is a ged.GED whose attribute literals may compare with any of
// the six predicates (id literals remain equalities). GDCs can express
// relational denial constraints and "domain constraints" such as
// x.A ∈ {0, 1} (Example 9). Validation is the GEDs' own (Theorem 8: it
// stays coNP-complete), through package reason.
//
// Satisfiability and implication are Σᵖ₂- and Πᵖ₂-complete; the solver
// here mirrors that quantifier structure with a propagate-and-branch
// search over quotients of the canonical graph and normalized attribute
// values, certifying every positive answer with the validator. Resource
// caps make it return Unknown instead of diverging; see the Verdict
// type. It decides no disjunction: a GED∨ input is an error.
package gdc

import (
	"fmt"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// New returns the GDC Q[x̄](X → Y).
func New(name string, q *pattern.Pattern, x, y []ged.Literal) *ged.GED {
	return ged.New(name, q, x, y)
}

// decidable returns an error naming the first of rules the solver
// cannot decide: a disjunctive one.
func decidable(rules ...*ged.GED) error {
	for _, d := range rules {
		if d.Disjunctive {
			return fmt.Errorf("gdc: rule %s is a %s; the GDC solver decides no disjunction", d.Name, d.Form())
		}
	}
	return nil
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
