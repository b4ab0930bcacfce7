package chase

import (
	"fmt"

	"gedlib/internal/graph"
)

// Materialize turns the final relation of a valid chase into a concrete
// graph suitable as a model witness (Theorem 2's "only if" direction):
// the coercion G_Eq — node i is the class Coercion().RepOf[i], edges are
// transported — except that
//
//   - residual wildcard node and edge labels are replaced by fresh
//     concrete labels (this preserves the match set exactly, because a
//     concrete pattern label matches neither the wildcard nor a label it
//     has never seen, while a wildcard pattern label matches both);
//   - every attribute class without a constant is materialized as a
//     fresh constant, one per value class, so equated attributes agree
//     and unequated ones differ.
//
// Fresh labels are numbered over the nodes in class order, then over
// the edges in graph.CompareEdges order. The graph is built straight
// from Eq and the chase's frozen input; no coercion is built for it.
//
// It must only be called on a consistent result.
func (r *Result) Materialize() *graph.Graph {
	if !r.Consistent() {
		panic("chase: materializing an invalid chase")
	}
	eq := r.Eq
	_, repOf, edges := eq.skeleton()
	out := graph.New()
	freshLabels := 0
	for _, rep := range repOf {
		l := eq.nodeLabel[rep]
		if l == graph.Wildcard {
			l = graph.Label(fmt.Sprintf("_fresh%d", freshLabels))
			freshLabels++
		}
		out.AddNode(l)
	}
	for _, e := range edges {
		l := e.Label
		if l == graph.Wildcard {
			l = graph.Label(fmt.Sprintf("_freshe%d", freshLabels))
			freshLabels++
		}
		out.AddEdge(e.Src, l, e.Dst)
	}
	// Materialize attributes: constants verbatim, constant-less classes
	// as fresh values shared across the class.
	placeholder := make(map[Term]graph.Value)
	for cn, rep := range repOf {
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
