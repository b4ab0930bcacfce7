package chase

import (
	"context"
	"fmt"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// RunRefreeze is the differential oracle for RunCtx: the textbook
// fixpoint loop, which at the start of every round re-coerces Eq in
// full, re-freezes the coercion graph and re-enumerates every match of
// every GED as a whole pattern — no host reuse, no join, no parking.
// It shares Eq, the compiled literals and enforce with the real loop,
// so a disagreement is about which matches were visited, and when.
func RunRefreeze(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int) (*Result, error) {
	c := newChaser(ctx, g, sigma, seeds, maxRounds)
	defer c.report()
	eq := c.eq
	stop := func() bool { return ctx.Err() != nil }
	for eq.Consistent() {
		if err := c.checkRound(); err != nil {
			return c.result(), err
		}
		co := Coerce(eq)
		host := co.Graph.Freeze()
		c.changed = false
		for gi, d := range sigma {
			pattern.Compile(d.Pattern, host).ForEachDenseCancel(host, stop, nil, func(bind []graph.NodeID) bool {
				if ctx.Err() != nil {
					return false
				}
				c.enforce(gi, co.RepOf, bind)
				return eq.Consistent()
			})
			if err := ctx.Err(); err != nil {
				return c.result(), err
			}
			if !eq.Consistent() {
				break
			}
		}
		if !c.changed {
			break
		}
	}
	return c.result(), nil
}

// MaterializeViaCoercion is the differential oracle for Materialize:
// the witness read off the coercion graph — nodes in coercion order,
// the coercion's Edges() numbering the fresh edge labels — which
// Materialize, building from Eq, must reproduce byte for byte.
func MaterializeViaCoercion(r *Result) *graph.Graph {
	eq, co := r.Eq, r.Coercion()
	out := graph.New()
	freshLabels := 0
	for cn := range co.RepOf {
		l := co.Graph.Label(graph.NodeID(cn))
		if l == graph.Wildcard {
			l = graph.Label(fmt.Sprintf("_fresh%d", freshLabels))
			freshLabels++
		}
		out.AddNode(l)
	}
	for _, e := range co.Graph.Edges() {
		l := e.Label
		if l == graph.Wildcard {
			l = graph.Label(fmt.Sprintf("_freshe%d", freshLabels))
			freshLabels++
		}
		out.AddEdge(e.Src, l, e.Dst)
	}
	placeholder := make(map[Term]graph.Value)
	for cn, rep := range co.RepOf {
		for _, a := range eq.ClassAttrs(rep) {
			if v, ok := eq.AttrConst(rep, a); ok {
				out.SetAttr(graph.NodeID(cn), a, v)
				continue
			}
			t, _ := eq.SlotTerm(rep, a)
			v, ok := placeholder[t]
			if !ok {
				v = graph.String(fmt.Sprintf("_v%d", len(placeholder)))
				placeholder[t] = v
			}
			out.SetAttr(graph.NodeID(cn), a, v)
		}
	}
	return out
}
