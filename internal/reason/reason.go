// Package reason implements validation, the third classical analysis of
// Section 5 of "Dependencies for Graphs" (Fan & Lu, PODS 2017): does a
// given graph satisfy Σ, and if not, which matches violate which
// literals (Section 5.3)? It judges GEDs, GDCs and GED∨s alike, in one
// pass or maintained under deltas. Satisfiability and implication are
// package gdc's, whose witnesses this package certifies.
package reason

import (
	"context"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Violation is one witness that G ⊭ Σ: a match of a rule's pattern that
// satisfies X but fails the given consequent literal (for forbidding
// constraints the failed literal is part of the false desugaring).
type Violation struct {
	// GED is the violated rule, of any Form.
	GED *ged.GED
	// Match is the violating match h(x̄).
	Match pattern.Match
	// Literal is the first consequent literal not satisfied. A
	// disjunctive rule's match fails every disjunct and names the first;
	// an empty disjunction names the false desugaring's first literal.
	Literal ged.Literal
}

// Satisfies reports G ⊨ Σ (Section 5.3), freezing g once.
func Satisfies(g *graph.Graph, sigma ged.Set) bool {
	return satisfies(g.Freeze(), sigma)
}

func satisfies(snap *graph.Snapshot, sigma ged.Set) bool {
	vs, _ := NewValidatorOn(snap, sigma).RunCtx(context.Background(), 1)
	return len(vs) == 0
}

// hasAllPatterns verifies the "strong" part of Section 5.1's model
// definition: every pattern of Σ has a match in snap.
func hasAllPatterns(snap *graph.Snapshot, sigma ged.Set) bool {
	for _, d := range sigma {
		found := false
		pattern.ForEachMatch(d.Pattern, snap, func(pattern.Match) bool {
			found = true
			return false
		})
		if !found {
			return false
		}
	}
	return true
}

// IsModel reports whether g is a model of Σ: g ⊨ Σ and every pattern of
// Σ has a match in g.
func IsModel(g *graph.Graph, sigma ged.Set) bool {
	snap := g.Freeze()
	return satisfies(snap, sigma) && hasAllPatterns(snap, sigma)
}
