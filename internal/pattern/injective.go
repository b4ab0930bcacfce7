package pattern

import "gedlib/internal/graph"

// Injective (subgraph-isomorphism style) matching, provided as the
// ablation counterpart of the package's homomorphism semantics.
//
// The paper's predecessors ([19, 23]) interpreted patterns via subgraph
// isomorphism; Section 3 argues this breaks the uniform treatment of
// GFDs and keys: under isomorphism two variables can never map to one
// node, so a GKey like ψ₃ — whose antecedent identifies a pair of
// albums by id — can never find a violating match, and a key stating
// "all UoE nodes are one node" has no sensible model. The tests and
// benchmarks use ForEachMatchInjective to demonstrate exactly that
// divergence; all analyses in this repository use homomorphism.

// ForEachMatchInjective enumerates the injective matches of p in snap:
// label-compatible homomorphisms whose variable assignments are pairwise
// distinct.
func ForEachMatchInjective(p *Pattern, snap *graph.Snapshot, yield func(Match) bool) {
	used := make(map[graph.NodeID]Var, p.NumVars())
	ForEachMatch(p, snap, func(m Match) bool {
		clear(used)
		for v, n := range m {
			if w, ok := used[n]; ok && w != v {
				return true // not injective; skip
			}
			used[n] = v
		}
		return yield(m)
	})
}

// CountMatchesInjective returns the number of injective matches.
func CountMatchesInjective(p *Pattern, snap *graph.Snapshot) int {
	n := 0
	ForEachMatchInjective(p, snap, func(Match) bool {
		n++
		return true
	})
	return n
}
