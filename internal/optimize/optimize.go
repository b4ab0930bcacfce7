// Package optimize rewrites graph pattern queries using a set of GEDs,
// realizing the query-optimization application the paper lists for the
// chase (Section 4.1: "optimize graph pattern queries Q with Σ when G
// represents Q") and motivates in the introduction for billion-node
// social graphs.
//
// Given a query — a pattern Q[x̄] with an optional selection X — and a
// set Σ of GEDs known to hold on the data, chase(G_Q, Eq_X, Σ) yields
// equalities that every match in every graph satisfying Σ must obey
// (Theorem 4). Those equalities justify three rewrites:
//
//   - variables identified by the chase are merged, shrinking the
//     pattern (fewer joins for the matcher);
//   - attribute constants deduced by the chase become pushed-down
//     selections (index lookups instead of post-filters);
//   - an inconsistent chase proves the query returns no results on any
//     consistent database, so it can be answered without touching data.
//
// The rewrite is equivalence-preserving on graphs satisfying Σ, which
// the tests check by comparing match sets on random Σ-satisfying hosts.
package optimize

import (
	"context"
	"sort"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Query is a pattern query with an optional conjunctive selection.
type Query struct {
	// Pattern is Q[x̄].
	Pattern *pattern.Pattern
	// X is the selection: literals every reported match must satisfy.
	X []ged.Literal
}

// Result is the optimized form of a query.
type Result struct {
	// Empty reports that the query has no answers on any graph
	// satisfying Σ (the chase of G_Q from Eq_X was inconsistent).
	Empty bool
	// Query is the rewritten query (nil when Empty).
	Query *Query
	// VarMap sends each original variable to its representative in the
	// rewritten pattern. Matches of the rewritten query pull back to
	// matches of the original through this map.
	VarMap map[pattern.Var]pattern.Var
	// InferredConsts are constant bindings x.A = c guaranteed by Σ for
	// every match — usable as index-backed selections. Variables are
	// representatives of the rewritten pattern.
	InferredConsts []ged.Literal
	// InferredAttrs are attributes guaranteed to exist on each variable
	// (from the chase's attribute generation), keyed by representative.
	InferredAttrs map[pattern.Var][]graph.Attr
	// MergedVars counts variables eliminated by the rewrite.
	MergedVars int
}

// Rewrite optimizes q under Σ.
func Rewrite(q *Query, sigma ged.Set) *Result {
	out, _ := RewriteCtx(context.Background(), q, sigma, 0)
	return out
}

// RewriteCtx is Rewrite with cooperative cancellation and an optional
// chase round bound (see chase.RunCtx). On cancellation or an exceeded
// bound the error is non-nil and the result is not meaningful.
func RewriteCtx(ctx context.Context, q *Query, sigma ged.Set, maxRounds int) (*Result, error) {
	gq, vm := q.Pattern.ToGraph()
	inv := make(map[graph.NodeID]pattern.Var, len(vm))
	for v, n := range vm {
		inv[n] = v
	}
	seeds := make([]chase.Seed, 0, len(q.X))
	for _, l := range q.X {
		seeds = append(seeds, chase.SeedOf(l, vm))
	}
	res, err := chase.RunCtx(ctx, gq, sigma, seeds, maxRounds)
	if err != nil {
		return nil, err
	}
	if !res.Consistent() {
		return &Result{Empty: true}, nil
	}
	eq := res.Eq

	// Representative variable per node class: the lexicographically
	// smallest member, for determinism.
	varMap := make(map[pattern.Var]pattern.Var, len(vm))
	repVar := make(map[graph.NodeID]pattern.Var)
	for _, v := range q.Pattern.Vars() {
		r := eq.NodeRoot(vm[v])
		if cur, ok := repVar[r]; !ok || v < cur {
			repVar[r] = v
		}
	}
	merged := 0
	for _, v := range q.Pattern.Vars() {
		rep := repVar[eq.NodeRoot(vm[v])]
		varMap[v] = rep
		if rep != v {
			merged++
		}
	}

	// Rewritten pattern: the quotient, with class-resolved labels
	// (a wildcard variable identified with a labeled one becomes
	// concrete — cheaper candidate sets for the matcher).
	np := pattern.New()
	for _, v := range q.Pattern.Vars() {
		if varMap[v] != v {
			continue
		}
		np.AddVar(v, eq.ClassLabel(vm[v]))
	}
	seenEdge := make(map[pattern.Edge]bool)
	for _, e := range q.Pattern.Edges() {
		ne := pattern.Edge{Src: varMap[e.Src], Label: e.Label, Dst: varMap[e.Dst]}
		if seenEdge[ne] {
			continue
		}
		seenEdge[ne] = true
		np.AddEdge(ne.Src, ne.Label, ne.Dst)
	}

	// Rewritten selection: substitute representatives, dropping
	// duplicates and literals the chase proved redundant (id literals
	// within one class are now tautological).
	var nx []ged.Literal
	seenLit := make(map[ged.Literal]bool)
	for _, l := range q.X {
		nl := substituteVars(l, varMap)
		if k, _ := nl.Kind(); k == ged.IDLiteral && nl.Left.Var == nl.Right.Var {
			continue
		}
		if !seenLit[nl] {
			seenLit[nl] = true
			nx = append(nx, nl)
		}
	}

	// Inferred facts per representative.
	out := &Result{
		Query:         &Query{Pattern: np, X: nx},
		VarMap:        varMap,
		InferredAttrs: make(map[pattern.Var][]graph.Attr),
		MergedVars:    merged,
	}
	reps := make([]pattern.Var, 0, len(repVar))
	for _, v := range repVar {
		reps = append(reps, v)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	for _, v := range reps {
		n := vm[v]
		attrs := eq.ClassAttrs(n)
		if len(attrs) > 0 {
			out.InferredAttrs[v] = attrs
		}
		for _, a := range attrs {
			if c, ok := eq.AttrConst(n, a); ok {
				out.InferredConsts = append(out.InferredConsts, ged.ConstLit(v, a, c))
			}
		}
	}
	return out, nil
}

func substituteVars(l ged.Literal, m map[pattern.Var]pattern.Var) ged.Literal {
	sub := func(o ged.Operand) ged.Operand {
		if o.Kind == ged.OperandConst {
			return o
		}
		o.Var = m[o.Var]
		return o
	}
	return ged.Literal{Left: sub(l.Left), Right: sub(l.Right), Op: l.Op}
}

// Answers evaluates a query on a graph: the matches of its pattern that
// satisfy its selection, whose literals may compare with any Op (a
// selection Rewrite chases must be GED literals).
func Answers(q *Query, g *graph.Graph) []pattern.Match {
	snap := g.Freeze()
	var out []pattern.Match
	pattern.ForEachMatch(q.Pattern, snap, func(m pattern.Match) bool {
		for _, l := range q.X {
			if !ged.Holds(snap, l, m) {
				return true
			}
		}
		out = append(out, m.Clone())
		return true
	})
	return out
}

// PullBack translates a match of the rewritten query into a match of the
// original query through the variable map.
func (r *Result) PullBack(m pattern.Match, original *pattern.Pattern) pattern.Match {
	out := make(pattern.Match, original.NumVars())
	for _, v := range original.Vars() {
		out[v] = m[r.VarMap[v]]
	}
	return out
}
