// Package gdc exposes the satisfiability and implication analyses of
// graph denial constraints — the GED extension of Section 7.1 with
// ordered comparison predicates (<, <=, >, >=, !=) — through the same
// vocabulary as the root gedlib package. A GDC is a gedlib.Rule, and
// Engine.Validate, Session.Apply and ParseRules take it like any
// other. The analyses decide any set of rules — GEDs, GDCs and GED∨s
// mixed freely — by one branching chase, the same solver package gedor
// exposes. Because inequalities and disjunction lift satisfiability and
// implication beyond the chase (Theorems 8 and 9), they return
// three-valued Verdicts: True and False are certified, Unknown means
// the search budget was exhausted.
package gdc

import (
	"gedlib"
	"gedlib/internal/gdc"
)

// GDC is a graph denial constraint Q[x̄](X → Y) whose literals may use
// ordered comparisons: a gedlib.Rule.
type GDC = gedlib.Rule

// Verdict is a three-valued answer; True and False are certified.
type Verdict = gdc.Verdict

// Three-valued verdicts.
const (
	False   = gdc.False
	True    = gdc.True
	Unknown = gdc.Unknown
)

// SatResult reports a satisfiability analysis.
type SatResult = gdc.SatResult

// ImplResult reports an implication analysis.
type ImplResult = gdc.ImplResult

// New returns the GDC Q[x̄](X → Y).
func New(name string, q *gedlib.Pattern, x, y []gedlib.Literal) *GDC {
	return gdc.New(name, q, x, y)
}

// DomainConstraint returns the GDCs asserting that attribute a of every
// tau-labeled node takes one of the given values.
func DomainConstraint(tau gedlib.Label, a gedlib.Attr, domain ...gedlib.Value) gedlib.RuleSet {
	return gdc.DomainConstraint(tau, a, domain...)
}

// CheckSat decides (three-valued) whether Σ has a model, certifying
// True with a witness.
func CheckSat(sigma gedlib.RuleSet) *SatResult { return gdc.CheckSat(sigma) }

// Implies decides (three-valued) whether Σ ⊨ φ, certifying False with a
// counterexample.
func Implies(sigma gedlib.RuleSet, phi *GDC) *ImplResult { return gdc.Implies(sigma, phi) }
