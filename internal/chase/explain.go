package chase

import (
	"fmt"
	"slices"

	"gedlib/internal/graph"
)

// This file exposes the proof forests of Eq: for any two identified
// nodes, or any two terms in one value class, Explain* returns the chain
// of reasoned unions connecting them. The axiom package replays these
// chains into A_GED proofs (Section 6), turning the completeness
// argument of Theorem 7 into an executable proof generator.

// forestLink is one reasoned union: endpoints a and b (NodeIDs or
// Terms) were joined directly, for the given reason.
type forestLink struct {
	a, b   int
	reason Reason
}

// forest is a proof forest kept as the append-only log of its unions —
// every chase pays for unions, few ever ask for an explanation — with
// the adjacency index built by the first path query that needs it.
type forest struct {
	links []forestLink
	adj   map[int][]int32 // endpoint -> positions in links[:indexed], ascending
	// indexed is how much of links adj covers; a longer log re-indexes.
	indexed int
}

func (f *forest) add(a, b int, why Reason) {
	f.links = append(f.links, forestLink{a: a, b: b, reason: why})
}

// path returns the links leading from one endpoint to another, each
// oriented along the way (a is the nearer end), or nil if the forest
// does not connect them. Neighbours are visited in union order.
func (f *forest) path(from, to int) []forestLink {
	if f.indexed != len(f.links) {
		f.adj = make(map[int][]int32)
		for i, l := range f.links {
			f.adj[l.a] = append(f.adj[l.a], int32(i))
			f.adj[l.b] = append(f.adj[l.b], int32(i))
		}
		f.indexed = len(f.links)
	}
	// prev maps each reached endpoint to the link that reached it; from
	// reaches itself.
	prev := map[int]forestLink{from: {}}
	for queue := []int{from}; len(queue) > 0; queue = queue[1:] {
		if _, reached := prev[to]; reached {
			break
		}
		cur := queue[0]
		for _, i := range f.adj[cur] {
			l := f.links[i]
			o := l.a + l.b - cur
			if _, seen := prev[o]; !seen {
				prev[o] = forestLink{a: cur, b: o, reason: l.reason}
				queue = append(queue, o)
			}
		}
	}
	if _, reached := prev[to]; !reached {
		return nil
	}
	var chain []forestLink
	for cur := to; cur != from; cur = prev[cur].a {
		chain = append(chain, prev[cur])
	}
	slices.Reverse(chain)
	return chain
}

// NodeLink is one edge of a node-forest explanation: nodes A and B were
// identified directly, for the given reason.
type NodeLink struct {
	A, B   graph.NodeID
	Reason Reason
}

// ValueEndpoint describes one end of a value-forest edge: either an
// attribute slot u.A or a constant.
type ValueEndpoint struct {
	IsConst bool
	Const   graph.Value
	Node    graph.NodeID
	Attr    graph.Attr
}

// String renders the endpoint.
func (v ValueEndpoint) String() string {
	if v.IsConst {
		return v.Const.String()
	}
	return fmt.Sprintf("n%d.%s", v.Node, v.Attr)
}

// ValueLink is one edge of a value-forest explanation.
type ValueLink struct {
	A, B   ValueEndpoint
	Reason Reason
}

// Endpoint describes term t.
func (eq *Eq) Endpoint(t Term) ValueEndpoint {
	ti := eq.terms[t]
	if ti.attr < 0 {
		return ValueEndpoint{IsConst: true, Const: eq.consts[ti.node]}
	}
	return ValueEndpoint{Node: ti.node, Attr: eq.attrs[ti.attr]}
}

// ExplainNodes returns a chain of directly-reasoned identifications
// connecting x and y, or nil if they are not identified (or are equal).
func (eq *Eq) ExplainNodes(x, y graph.NodeID) []NodeLink {
	if x == y || !eq.SameNode(x, y) {
		return nil
	}
	var chain []NodeLink
	for _, l := range eq.nodeForest.path(int(x), int(y)) {
		chain = append(chain, NodeLink{A: graph.NodeID(l.a), B: graph.NodeID(l.b), Reason: l.reason})
	}
	return chain
}

// ExplainTerms returns a chain of directly-reasoned value unions
// connecting terms s and t, or nil if they are in different classes (or
// equal).
func (eq *Eq) ExplainTerms(s, t Term) []ValueLink {
	if s == t || eq.valRoot(s) != eq.valRoot(t) {
		return nil
	}
	var chain []ValueLink
	for _, l := range eq.valForest.path(int(s), int(t)) {
		chain = append(chain, ValueLink{A: eq.Endpoint(Term(l.a)), B: eq.Endpoint(Term(l.b)), Reason: l.reason})
	}
	return chain
}

// SlotTermExact returns the term of the slot (x, a) if that exact slot
// was ever created (as opposed to the class-level SlotTerm lookup).
func (eq *Eq) SlotTermExact(x graph.NodeID, a graph.Attr) (Term, bool) {
	id, ok := eq.attrIDs[a]
	if !ok {
		return noTerm, false
	}
	e, ok := findAttr(eq.slots[x], id)
	return e.term, ok
}

// ConstTermExact returns the term of constant c if it was ever created.
func (eq *Eq) ConstTermExact(c graph.Value) (Term, bool) {
	t, ok := eq.constOf[c]
	return t, ok
}

// ClassSlotTerm returns a term witnessing that class of x carries
// attribute a (the class entry term), and its owner node.
func (eq *Eq) ClassSlotTerm(x graph.NodeID, a graph.Attr) (Term, graph.NodeID, bool) {
	id, ok := eq.attrIDs[a]
	if !ok {
		return noTerm, 0, false
	}
	e, ok := findAttr(eq.classAttrs[eq.NodeRoot(x)], id)
	return e.term, e.owner, ok
}
