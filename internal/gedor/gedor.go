// Package gedor implements GED∨s — GEDs with limited disjunction — from
// Section 7.2 of "Dependencies for Graphs" (Fan & Lu, PODS 2017).
//
// A GED∨ has the same syntactic form Q[x̄](X → Y) as a GED, but Y is
// interpreted as a disjunction: a match satisfying X must satisfy at
// least one literal of Y. GED∨s subsume GEDs (each conjunct becomes its
// own GED∨) and can express domain constraints such as
// Q[x](∅ → x.A = 0 ∨ x.A = 1) that plain GEDs cannot (Example 10).
//
// Validation is exact (coNP-complete, Theorem 9). Satisfiability and
// implication are decided by a branching chase that mirrors their
// Σᵖ₂/Πᵖ₂ structure: at every match with a satisfied antecedent and no
// satisfied disjunct, the search branches on which disjunct to enforce.
// Positive satisfiability answers are certified with the validator;
// non-implication answers with a certified countermodel.
package gedor

import (
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// GEDor is a disjunctive dependency Q[x̄](X → l₁ ∨ ... ∨ l_k).
type GEDor struct {
	// Name is an optional identifier.
	Name string
	// Pattern is the topological constraint Q[x̄].
	Pattern *pattern.Pattern
	// X is the (conjunctive) antecedent.
	X []ged.Literal
	// Y is the disjunctive consequent. An empty Y is the constant false,
	// making the GED∨ a forbidding constraint.
	Y []ged.Literal
}

// New returns the GED∨ Q[x̄](X → ∨Y).
func New(name string, q *pattern.Pattern, x, y []ged.Literal) *GEDor {
	return &GEDor{Name: name, Pattern: q, X: x, Y: y}
}

// FromGED splits a GED into the equivalent set of GED∨s, one per
// consequent literal (Section 7.2).
func FromGED(g *ged.GED) []*GEDor {
	if len(g.Y) == 0 {
		return []*GEDor{New(g.Name, g.Pattern, g.X, []ged.Literal{trivialLit(g.Pattern)})}
	}
	out := make([]*GEDor, 0, len(g.Y))
	for i, l := range g.Y {
		name := g.Name
		if len(g.Y) > 1 {
			name = g.Name + "#" + string(rune('0'+i))
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

// Validate checks well-formedness (same literal forms as GEDs).
func (g *GEDor) Validate() error {
	return ged.New(g.Name, g.Pattern, g.X, g.Y).Validate()
}

// String renders the GED∨ with ∨-separated consequents.
func (g *GEDor) String() string {
	s := ged.New(g.Name, g.Pattern, g.X, nil).String()
	// Render Y by hand to show the disjunction.
	out := s[:len(s)-len("true)")]
	if len(g.Y) == 0 {
		return out + "false)"
	}
	for i, l := range g.Y {
		if i > 0 {
			out += " || "
		}
		out += l.String()
	}
	return out + ")"
}

// Set is a finite set Σ of GED∨s.
type Set []*GEDor

// Validate checks every member.
func (s Set) Validate() error {
	for _, g := range s {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CanonicalGraph builds G_Σ.
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

// Violation is a match satisfying X with every disjunct of Y false.
type Violation struct {
	GEDor *GEDor
	Match pattern.Match
}

// Validate finds violations of Σ in G, up to limit (≤ 0 means all).
func Validate(g *graph.Graph, sigma Set, limit int) []Violation {
	snap := g.Freeze()
	var out []Violation
	for _, d := range sigma {
		pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
			for _, l := range d.X {
				if !holds(snap, l, m) {
					return true
				}
			}
			for _, l := range d.Y {
				if holds(snap, l, m) {
					return true
				}
			}
			out = append(out, Violation{GEDor: d, Match: m.Clone()})
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

// holds is ged.Holds restricted to the GED literal forms GED∨s admit.
func holds(snap *graph.Snapshot, l ged.Literal, m pattern.Match) bool {
	if _, ok := l.Kind(); !ok {
		panic("gedor: non-GED literal")
	}
	return ged.Holds(snap, l, m)
}

// DomainConstraint returns the GED∨ of Example 10: every node labeled
// tau has attribute a with a value among the given constants.
func DomainConstraint(tau graph.Label, a graph.Attr, domain ...graph.Value) *GEDor {
	q := pattern.New()
	q.AddVar("x", tau)
	var ys []ged.Literal
	for _, v := range domain {
		ys = append(ys, ged.ConstLit("x", a, v))
	}
	return New("domain", q, nil, ys)
}
