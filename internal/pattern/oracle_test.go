package pattern_test

// The independent oracle of the matcher's differential tests: a
// brute-force homomorphism enumerator over the mutable graph. It shares
// nothing with the matcher — no plan, no order, no candidate
// intersection, no snapshot — only the definition of a match (Section
// 2): every variable's label is matched under ⪯, every pattern edge
// exists in the host (the exact edge for a concrete label, any edge for
// the wildcard), and every pushed-down constant filter holds on the
// stored attributes.

import (
	"fmt"
	"sort"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// bruteForce returns every match of p in g satisfying filters, trying
// all |V|^k assignments of p's k variables in Vars() order; a prefix is
// dropped as soon as a constraint among its assigned variables fails,
// which skips exactly the assignments that extend it.
func bruteForce(p *pattern.Pattern, g *graph.Graph, filters []pattern.ConstFilter) []pattern.Match {
	vars := p.Vars()
	pos := make(map[pattern.Var]int, len(vars))
	for i, x := range vars {
		pos[x] = i
	}
	bind := make([]graph.NodeID, len(vars))
	// ok checks every constraint whose last variable is vars[i].
	ok := func(i int) bool {
		x, n := vars[i], bind[i]
		if !graph.LabelMatches(p.Label(x), g.Label(n)) {
			return false
		}
		for _, f := range filters {
			if f.Var != x {
				continue
			}
			v, has := g.Attr(n, f.Attr)
			if !has || !v.Equal(f.Value) {
				return false
			}
		}
		for _, e := range p.Edges() {
			s, d := pos[e.Src], pos[e.Dst]
			if max(s, d) != i {
				continue
			}
			if e.Label == graph.Wildcard {
				if !g.HasAnyEdge(bind[s], bind[d]) {
					return false
				}
			} else if !g.HasEdge(bind[s], e.Label, bind[d]) {
				return false
			}
		}
		return true
	}
	var out []pattern.Match
	var assign func(i int)
	assign = func(i int) {
		if i == len(vars) {
			out = append(out, p.MatchOf(bind))
			return
		}
		for n := 0; n < g.NumNodes(); n++ {
			bind[i] = graph.NodeID(n)
			if ok(i) {
				assign(i + 1)
			}
		}
	}
	assign(0)
	return out
}

// bruteForcePivot is bruteForce as a pivot block enumerates it: for
// each candidate in cands, in order and with repeats, the matches
// binding pivot to it.
func bruteForcePivot(p *pattern.Pattern, g *graph.Graph, filters []pattern.ConstFilter, pivot pattern.Var, cands []graph.NodeID) []pattern.Match {
	by := make(map[graph.NodeID][]pattern.Match)
	for _, m := range bruteForce(p, g, filters) {
		by[m[pivot]] = append(by[m[pivot]], m)
	}
	var out []pattern.Match
	for _, c := range cands {
		out = append(out, by[c]...)
	}
	return out
}

// denseMatches collects a dense enumeration as Match maps.
func denseMatches(p *pattern.Pattern, enumerate func(func([]graph.NodeID) bool)) []pattern.Match {
	var out []pattern.Match
	enumerate(func(bind []graph.NodeID) bool {
		out = append(out, p.MatchOf(bind))
		return true
	})
	return out
}

// canonMatches renders a match list canonically for (multi)set
// comparison.
func canonMatches(p *pattern.Pattern, ms []pattern.Match) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		s := ""
		for _, x := range p.Vars() {
			s += fmt.Sprintf("%s=%d;", x, m[x])
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func sameCanon(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
