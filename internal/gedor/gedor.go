// Package gedor builds GED∨s — GEDs with limited disjunction — from
// Section 7.2 of "Dependencies for Graphs" (Fan & Lu, PODS 2017).
//
// A GED∨ is a ged.GED with the Disjunctive bit: its consequent Y is
// read as a disjunction, so a match satisfying X must satisfy at least
// one literal of Y. GED∨s subsume GEDs (each conjunct becomes its own
// GED∨, FromGED) and can express domain constraints such as
// Q[x](∅ → x.A = 0 ∨ x.A = 1) that plain GEDs cannot (Example 10).
// Validation is the GEDs' own (Theorem 9: it stays coNP-complete),
// through package reason; satisfiability and implication of any set of
// GEDs, GDCs and GED∨s are package gdc's.
package gedor

import (
	"strconv"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// New returns the GED∨ Q[x̄](X → ∨Y). An empty Y is the constant false,
// making it a forbidding constraint.
func New(name string, q *pattern.Pattern, x, y []ged.Literal) *ged.GED {
	d := ged.New(name, q, x, y)
	d.Disjunctive = true
	return d
}

// FromGED splits a GED into the equivalent set of GED∨s, one per
// consequent literal (Section 7.2).
func FromGED(g *ged.GED) ged.Set {
	if len(g.Y) == 0 {
		return ged.Set{New(g.Name, g.Pattern, g.X, []ged.Literal{trivialLit(g.Pattern)})}
	}
	out := make(ged.Set, 0, len(g.Y))
	for i, l := range g.Y {
		name := g.Name
		if len(g.Y) > 1 {
			name = g.Name + "#" + strconv.Itoa(i)
		}
		out = append(out, New(name, g.Pattern, g.X, []ged.Literal{l}))
	}
	return out
}

// trivialLit is an always-satisfiable literal anchored at the pattern's
// first variable, standing in for an empty conjunctive consequent.
func trivialLit(q *pattern.Pattern) ged.Literal {
	x := q.Vars()[0]
	return ged.IDLit(x, x)
}

// DomainConstraint returns the GED∨ of Example 10: every node labeled
// tau has attribute a with a value among the given constants.
func DomainConstraint(tau graph.Label, a graph.Attr, domain ...graph.Value) *ged.GED {
	q := pattern.New()
	q.AddVar("x", tau)
	var ys []ged.Literal
	for _, v := range domain {
		ys = append(ys, ged.ConstLit("x", a, v))
	}
	return New("domain", q, nil, ys)
}
