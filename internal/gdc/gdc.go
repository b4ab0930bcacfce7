// Package gdc implements graph denial constraints (GDCs), the extension
// of GEDs with built-in predicates =, ≠, <, ≤, >, ≥ from Section 7.1 of
// "Dependencies for Graphs" (Fan & Lu, PODS 2017).
//
// A GDC has the same shape Q[x̄](X → Y) as a GED, but its attribute
// literals may compare with any of the six predicates (id literals
// remain equalities). GDCs can express relational denial constraints and
// "domain constraints" such as x.A ∈ {0, 1} (Example 9).
//
// Validation is decided exactly, by match enumeration (Theorem 8: it
// stays coNP-complete). Satisfiability and implication are Σᵖ₂- and
// Πᵖ₂-complete; the solver here mirrors that quantifier structure with a
// propagate-and-branch search over quotients of the canonical graph and
// normalized attribute values, certifying every positive answer with the
// validator. Resource caps make it return Unknown instead of diverging;
// see the Verdict type.
package gdc

import (
	"fmt"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// GDC is a graph denial constraint Q[x̄](X → Y).
type GDC struct {
	// Name is an optional identifier.
	Name string
	// Pattern is the topological constraint Q[x̄].
	Pattern *pattern.Pattern
	// X and Y are literal sets; attribute literals may use any Op.
	X, Y []ged.Literal
}

// New returns the GDC Q[x̄](X → Y).
func New(name string, q *pattern.Pattern, x, y []ged.Literal) *GDC {
	return &GDC{Name: name, Pattern: q, X: x, Y: y}
}

// FromGED views a GED as a GDC (GEDs are the ⊕ = '=' special case).
func FromGED(g *ged.GED) *GDC {
	return &GDC{Name: g.Name, Pattern: g.Pattern, X: g.X, Y: g.Y}
}

// Validate checks well-formedness: literals are x.A ⊕ c, x.A ⊕ y.B, or
// x.id = y.id, over known variables.
func (g *GDC) Validate() error {
	check := func(side string, lits []ged.Literal) error {
		for i, l := range lits {
			ok := false
			switch {
			case l.Left.Kind == ged.OperandAttr && l.Right.Kind == ged.OperandConst:
				ok = true
			case l.Left.Kind == ged.OperandAttr && l.Right.Kind == ged.OperandAttr:
				ok = true
			case l.Left.Kind == ged.OperandID && l.Right.Kind == ged.OperandID:
				ok = l.Op == ged.OpEq
			}
			if !ok {
				return fmt.Errorf("gdc %s: %s[%d] (%s) is not a GDC literal", g.Name, side, i, l)
			}
			for _, v := range l.Vars() {
				if !g.Pattern.HasVar(v) {
					return fmt.Errorf("gdc %s: %s[%d] mentions unknown variable %s", g.Name, side, i, v)
				}
			}
		}
		return nil
	}
	if g.Pattern == nil {
		return fmt.Errorf("gdc %s: nil pattern", g.Name)
	}
	if err := check("X", g.X); err != nil {
		return err
	}
	return check("Y", g.Y)
}

// String renders the GDC.
func (g *GDC) String() string {
	tmp := ged.New(g.Name, g.Pattern, g.X, g.Y)
	return tmp.String()
}

// Set is a finite set Σ of GDCs.
type Set []*GDC

// Validate checks every member.
func (s Set) Validate() error {
	for _, g := range s {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CanonicalGraph builds G_Σ, the disjoint union of all patterns.
func (s Set) CanonicalGraph() (*graph.Graph, []map[pattern.Var]graph.NodeID) {
	g := graph.New()
	maps := make([]map[pattern.Var]graph.NodeID, len(s))
	for i, d := range s {
		pg, vm := d.Pattern.ToGraph()
		nm := g.DisjointUnion(pg)
		m := make(map[pattern.Var]graph.NodeID, len(vm))
		for v, id := range vm {
			m[v] = nm[id]
		}
		maps[i] = m
	}
	return g, maps
}

// Violation is a match violating a GDC.
type Violation struct {
	GDC     *GDC
	Match   pattern.Match
	Literal ged.Literal
}

// Validate finds violations of Σ in G, up to limit (≤ 0 means all).
func Validate(g *graph.Graph, sigma Set, limit int) []Violation {
	return validate(g.Freeze(), sigma, limit)
}

// validate is Validate over a frozen graph: every match of each
// pattern, every literal judged by ged.Holds — missing attributes
// falsify attribute literals, as for GEDs.
func validate(snap *graph.Snapshot, sigma Set, limit int) []Violation {
	var out []Violation
	for _, d := range sigma {
		pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
			for _, l := range d.X {
				if !ged.Holds(snap, l, m) {
					return true
				}
			}
			for _, l := range d.Y {
				if !ged.Holds(snap, l, m) {
					out = append(out, Violation{GDC: d, Match: m.Clone(), Literal: l})
					break
				}
			}
			return limit <= 0 || len(out) < limit
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Satisfies reports G ⊨ Σ.
func Satisfies(g *graph.Graph, sigma Set) bool {
	return len(Validate(g, sigma, 1)) == 0
}

// DomainConstraint returns the two GDCs of Example 9 enforcing that
// every node labeled tau carries attribute a with a value among the
// given constants: φ₁ generates the attribute, φ₂ forbids other values.
func DomainConstraint(tau graph.Label, a graph.Attr, domain ...graph.Value) Set {
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
	return Set{phi1, phi2}
}
