package ged

import (
	"errors"
	"fmt"
	"strings"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// GED is a graph entity dependency φ = Q[x̄](X → Y). X and Y are
// (possibly empty) sets of literals of x̄; the paper calls Q[x̄] the
// pattern of φ and X → Y its FD. The same type carries the two
// extensions of Section 7, which change the static analyses but not
// validation: a GDC's attribute literals compare with any Op, and a
// GED∨'s consequent is Disjunctive. Form tells the three apart.
type GED struct {
	// Name is an optional human-readable identifier (φ₁, ψ₂, ...).
	Name string
	// Pattern is the topological constraint Q[x̄].
	Pattern *pattern.Pattern
	// X is the antecedent literal set.
	X []Literal
	// Y is the consequent literal set.
	Y []Literal
	// Disjunctive reads Y as l₁ ∨ … ∨ l_k (a GED∨): a match satisfying
	// X must satisfy some literal of Y, so an empty Y is false.
	Disjunctive bool
}

// New returns the GED Q[x̄](X → Y).
func New(name string, q *pattern.Pattern, x, y []Literal) *GED {
	return &GED{Name: name, Pattern: q, X: x, Y: y}
}

// NewOr returns the GED∨ Q[x̄](X → l₁ ∨ … ∨ l_k) of Section 7.2. An
// empty Y is the constant false, making it a forbidding constraint.
func NewOr(name string, q *pattern.Pattern, x, y []Literal) *GED {
	return &GED{Name: name, Pattern: q, X: x, Y: y, Disjunctive: true}
}

// Validate checks that the rule is well-formed per Sections 3 and 7:
// every literal is x.A ⊕ c, x.A ⊕ y.B or x.id = y.id over the
// pattern's variables, no attribute literal uses the reserved id, and a
// disjunctive rule compares with = only (GED∨s have GED literals). It
// returns the first problem found.
func (g *GED) Validate() error {
	if g.Pattern == nil {
		return fmt.Errorf("ged %s: nil pattern", g.Name)
	}
	check := func(side string, lits []Literal) error {
		for i, l := range lits {
			switch {
			case !l.wellFormed():
				return fmt.Errorf("ged %s: %s[%d] (%s) is not a rule literal", g.Name, side, i, l)
			case g.Disjunctive && l.Op != OpEq:
				return fmt.Errorf("ged %s: %s[%d] (%s) compares in a disjunctive rule", g.Name, side, i, l)
			}
			for _, v := range l.Vars() {
				if !g.Pattern.HasVar(v) {
					return fmt.Errorf("ged %s: %s[%d] mentions unknown variable %s", g.Name, side, i, v)
				}
			}
			if l.Left.Kind == OperandAttr && l.Left.Attr == "id" {
				return fmt.Errorf("ged %s: %s[%d] uses id as a plain attribute", g.Name, side, i)
			}
			if l.Right.Kind == OperandAttr && l.Right.Attr == "id" {
				return fmt.Errorf("ged %s: %s[%d] uses id as a plain attribute", g.Name, side, i)
			}
		}
		return nil
	}
	if err := check("X", g.X); err != nil {
		return err
	}
	return check("Y", g.Y)
}

// Form is a rule's class among the three dependency languages of the
// paper.
type Form uint8

const (
	// FormGED is a graph entity dependency (Section 3).
	FormGED Form = iota
	// FormGDC is a graph denial constraint: some literal compares with a
	// predicate other than = (Section 7.1).
	FormGDC
	// FormGEDor is a GED with a disjunctive consequent (Section 7.2).
	FormGEDor
)

// String names the form.
func (f Form) String() string {
	switch f {
	case FormGDC:
		return "GDC"
	case FormGEDor:
		return "GED∨"
	default:
		return "GED"
	}
}

// Form derives the rule's class: GED∨ when Y is disjunctive, GDC when a
// literal compares with another predicate than =, GED otherwise.
func (g *GED) Form() Form {
	if g.Disjunctive {
		return FormGEDor
	}
	for _, ls := range [2][]Literal{g.X, g.Y} {
		for _, l := range ls {
			if l.Op != OpEq {
				return FormGDC
			}
		}
	}
	return FormGED
}

// ErrNotGED is wrapped by the errors of the analyses defined for GEDs
// only — the chase and everything built on it — when they are handed a
// GDC or a GED∨.
var ErrNotGED = errors.New("not a GED")

// RequireGED returns an error wrapping ErrNotGED that names the first
// of rules whose Form is not FormGED, and nil when there is none.
func RequireGED(rules ...*GED) error {
	for _, g := range rules {
		if f := g.Form(); f != FormGED {
			return fmt.Errorf("%w: rule %s is a %s", ErrNotGED, g.Name, f)
		}
	}
	return nil
}

// Class is the sub-class lattice of Section 3.
type Class uint8

const (
	// ClassGED is the general case: both constant and id literals may occur.
	ClassGED Class = iota
	// ClassGFD has no id literals (the GFDs of Fan, Wu & Xu, adapted to
	// homomorphism semantics).
	ClassGFD
	// ClassGEDx has no constant literals ("variable GEDs").
	ClassGEDx
	// ClassGFDx has neither constant nor id literals ("variable GFDs",
	// the graph analogue of plain relational FDs).
	ClassGFDx
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassGFD:
		return "GFD"
	case ClassGEDx:
		return "GEDx"
	case ClassGFDx:
		return "GFDx"
	default:
		return "GED"
	}
}

// Classify places the GED in the most restrictive sub-class it belongs
// to: GFDx ⊂ GFD, GEDx ⊂ GED. The sub-classes are GED ones; read it
// only on a rule whose Form is FormGED.
func (g *GED) Classify() Class { return Set{g}.Classify() }

// IsForbidding reports whether the consequent is the false desugaring,
// i.e. the GED is a forbidding constraint Q[x̄](X → false).
func (g *GED) IsForbidding() bool { return IsFalse(g.Y) }

// String renders the GED in the DSL's logical notation.
func (g *GED) String() string {
	var b strings.Builder
	if g.Name != "" {
		fmt.Fprintf(&b, "%s: ", g.Name)
	}
	fmt.Fprintf(&b, "%s (", g.Pattern)
	writeLits(&b, g.X, " && ", "true")
	b.WriteString(" -> ")
	if g.Disjunctive {
		writeLits(&b, g.Y, " || ", "false")
	} else {
		writeLits(&b, g.Y, " && ", "true")
	}
	b.WriteString(")")
	return b.String()
}

func writeLits(b *strings.Builder, lits []Literal, sep, empty string) {
	if len(lits) == 0 {
		b.WriteString(empty)
		return
	}
	for i, l := range lits {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(l.String())
	}
}

// Set is a finite set Σ of rules.
type Set []*GED

// Size returns Σ's total size: the sum over its GEDs of pattern size plus
// literal count. It is the |Σ| of the chase bound in Theorem 1.
func (s Set) Size() int {
	n := 0
	for _, g := range s {
		n += g.Pattern.Size() + len(g.X) + len(g.Y)
	}
	return n
}

// Classify returns the most restrictive class containing every member.
func (s Set) Classify() Class {
	hasConst, hasID := false, false
	for _, g := range s {
		for _, ls := range [2][]Literal{g.X, g.Y} {
			for _, l := range ls {
				switch k, _ := l.Kind(); k {
				case ConstLiteral:
					hasConst = true
				case IDLiteral:
					hasID = true
				}
			}
		}
	}
	switch {
	case !hasConst && !hasID:
		return ClassGFDx
	case !hasID:
		return ClassGFD
	case !hasConst:
		return ClassGEDx
	default:
		return ClassGED
	}
}

// Validate checks every member.
func (s Set) Validate() error {
	for _, g := range s {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CanonicalGraph builds the canonical graph G_Σ of Section 5.1: the
// disjoint union of the patterns of all GEDs in Σ, with empty attribute
// map. It returns, for each GED, the mapping from its pattern variables
// to nodes of G_Σ.
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
