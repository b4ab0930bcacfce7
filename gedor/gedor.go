// Package gedor exposes the satisfiability and implication analyses of
// GED∨s — the GED extension of Section 7.2 with disjunctive consequents
// — through the same vocabulary as the root gedlib package. A GED∨ is a
// gedlib.Rule with the Disjunctive bit, and Engine.Validate,
// Session.Apply and ParseRules take it like any other. Satisfiability
// and implication branch over disjunct choices (Theorem 9), so the
// analyses return three-valued Verdicts: True and False are certified,
// Unknown means the branch budget was exhausted or the input holds a
// GDC or an unsplit plain rule (the result's Err).
package gedor

import (
	"gedlib"
	"gedlib/internal/gedor"
)

// GEDor is a disjunctive dependency Q[x̄](X → l₁ ∨ ... ∨ lₖ): a
// gedlib.Rule with Disjunctive set.
type GEDor = gedlib.Rule

// Verdict is a three-valued answer; True and False are certified.
type Verdict = gedor.Verdict

// Three-valued verdicts.
const (
	False   = gedor.False
	True    = gedor.True
	Unknown = gedor.Unknown
)

// SatResult reports a GED∨ satisfiability analysis.
type SatResult = gedor.SatResult

// ImplResult reports a GED∨ implication analysis.
type ImplResult = gedor.ImplResult

// New returns the GED∨ Q[x̄](X → l₁ ∨ ... ∨ lₖ); an empty y is false.
func New(name string, q *gedlib.Pattern, x, y []gedlib.Literal) *GEDor {
	return gedor.New(name, q, x, y)
}

// FromGED splits a plain rule into equivalent GED∨s, one per consequent
// literal.
func FromGED(r *gedlib.Rule) gedlib.RuleSet { return gedor.FromGED(r) }

// DomainConstraint returns the GED∨ asserting that attribute a of every
// tau-labeled node takes one of the given values.
func DomainConstraint(tau gedlib.Label, a gedlib.Attr, domain ...gedlib.Value) *GEDor {
	return gedor.DomainConstraint(tau, a, domain...)
}

// CheckSat decides (three-valued) whether Σ has a model, certifying
// True with a witness. A GDC, or a plain rule of more than one
// consequent literal (split it with FromGED), is reported in Err.
func CheckSat(sigma gedlib.RuleSet) *SatResult { return gedor.CheckSat(sigma) }

// Implies decides (three-valued) whether Σ ⊨ φ, certifying False with a
// counterexample. Inputs CheckSat cannot decide are reported in Err.
func Implies(sigma gedlib.RuleSet, phi *GEDor) *ImplResult { return gedor.Implies(sigma, phi) }
