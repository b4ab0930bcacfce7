// Package chase implements the revised chase of Section 4 of
// "Dependencies for Graphs" (Fan & Lu, PODS 2017).
//
// The chase of a graph G by a set Σ of GEDs is a sequence of extensions
// of an equivalence relation Eq over the nodes of G and attribute terms
// x.A. Enforcing a GED may merge nodes (id literals), equate attribute
// values (variable literals), bind attributes to constants (constant
// literals), and *generate* attributes that schemaless nodes did not
// carry. A chase step is invalid when it produces a label conflict (two
// ⪯-incompatible labels in one node class) or an attribute conflict (two
// distinct constants in one value class). Theorem 1 shows the chase is
// finite and Church-Rosser: every terminal chasing sequence yields the
// same result, so this package runs a single deterministic fixpoint.
//
// Every union records the reason it happened in a proof forest
// (Nieuwenhuis–Oliveras style), which the axiom package replays into
// formal A_GED proofs (Theorem 7's completeness argument).
package chase

import (
	"cmp"
	"fmt"
	"slices"

	"gedlib/internal/graph"
)

// Term identifies a value term of Eq: either an attribute slot u.A of an
// original node u, or a constant of U. Terms are created on demand.
type Term int

const noTerm Term = -1

// ReasonKind discriminates why a union happened.
type ReasonKind uint8

const (
	// ReasonInitial records an attribute present in the input graph:
	// [x.A]_Eq0 contains x.A and its value.
	ReasonInitial ReasonKind = iota
	// ReasonGiven records a seed literal (the Eq_X of implication
	// analysis, Section 5.2).
	ReasonGiven
	// ReasonStep records a chase step Eq ⇒_(φ,h) Eq′ enforcing one
	// literal of φ's consequent.
	ReasonStep
	// ReasonIDProp records closure rule (d): nodes x, y were identified,
	// so their corresponding attribute classes [x.A] and [y.A] merged.
	ReasonIDProp
)

// Reason explains one proof-forest edge.
type Reason struct {
	Kind ReasonKind
	// Seed is the index of the seed literal for ReasonGiven.
	Seed int
	// Step is the index into the chase trace for ReasonStep.
	Step int
	// U, V are the original nodes whose identification propagated an
	// attribute merge, and A the attribute, for ReasonIDProp.
	U, V graph.NodeID
	A    graph.Attr
}

// ConflictKind discriminates the two inconsistency sources of Section 4.1.
type ConflictKind uint8

const (
	// LabelConflict: a node class contains ⪯-incompatible labels.
	LabelConflict ConflictKind = iota
	// AttrConflict: a value class contains two distinct constants.
	AttrConflict
)

// Conflict describes why Eq became inconsistent.
type Conflict struct {
	Kind ConflictKind
	// For LabelConflict: the two incompatible labels and witness nodes.
	LabelA, LabelB graph.Label
	NodeA, NodeB   graph.NodeID
	// For AttrConflict: the two distinct constants.
	ConstA, ConstB graph.Value
}

// Error renders the conflict.
func (c *Conflict) Error() string {
	if c.Kind == LabelConflict {
		return fmt.Sprintf("label conflict: node %d (%s) vs node %d (%s)", c.NodeA, c.LabelA, c.NodeB, c.LabelB)
	}
	return fmt.Sprintf("attribute conflict: %s vs %s", c.ConstA, c.ConstB)
}

// attrEntry is one attribute of a node or of a node class: the value
// term of the slot owner.attr, with attr as Eq's attribute id.
type attrEntry struct {
	attr  int32
	term  Term
	owner graph.NodeID
}

func byAttr(x, y attrEntry) int { return cmp.Compare(x.attr, y.attr) }

// termInfo says what a value term stands for: the slot node.attr, or —
// when attr is negative — the constant eq.consts[node].
type termInfo struct {
	node graph.NodeID
	attr int32
}

// Eq is the equivalence relation of Section 4.1 over the nodes and
// attribute terms of one graph, maintained under the closure rules
// (a)–(d) as invariants:
//
//	(a,c) symmetry/transitivity — union–find;
//	(b)   value classes sharing a constant are merged — constants are
//	      themselves terms, so sharing a constant is sharing a member;
//	(d)   identified nodes share attribute classes — node-class merges
//	      union the per-attribute value terms of both classes.
//
// Everything is a flat table indexed by node id, term or attribute id;
// the only maps are the two symbol tables (attribute names, constants).
type Eq struct {
	// base is the graph frozen when Eq0 was read off it: the source of
	// the initial labels and attribute columns, the chase's match host
	// for as long as no two nodes are identified, and the edges of every
	// coercion. Nothing reads the mutable graph after NewEq.
	base *graph.Snapshot

	// Attribute names by id: g's own in name order (so that closure rule
	// (d) visits a class's attributes in an order that does not depend on
	// how g was built), then the generated ones in order of first mention.
	attrs   []graph.Attr
	attrIDs map[graph.Attr]int32

	// Node union–find, indexed by NodeID (node ids are dense). Labels and
	// classAttrs are meaningful at class roots only; classAttrs[r] is
	// ascending by attribute id. slots[u] lists the slots u.A of u itself
	// that the input graph stores or a literal mentioned. Lists cut from
	// NewEq's arena are capacity-clamped and entries are never written in
	// place, so the two tables may share storage.
	nodeParent []graph.NodeID
	nodeLabel  []graph.Label
	classAttrs [][]attrEntry
	slots      [][]attrEntry
	nodeUnions int // node classes merged so far; stamps the chase's hosts
	nodeForest forest

	// Value union–find. Terms are slots (u.A) or constants; the tables
	// below are parallel, indexed by Term.
	valParent []Term
	rootConst []Term // per value root: the constant term of its class, or noTerm
	terms     []termInfo
	consts    []graph.Value
	constOf   map[graph.Value]Term
	valForest forest

	conflict *Conflict
	// size counts union operations and term creations, to check the
	// Theorem 1 bound in tests.
	size int
}

// NewEq returns Eq0 for g: singleton node classes, and for each stored
// attribute x.A = c the class {x.A, c} (Section 4.1's initial relation).
// g is frozen once and read by interned symbol.
func NewEq(g *graph.Graph) *Eq {
	base := g.Freeze()
	n := base.NumNodes()
	syms := base.AttrSymbols()
	stored := 0
	for _, id := range base.Nodes() {
		keys, _ := base.AttrTuple(id)
		stored += len(keys)
	}
	eq := &Eq{
		base:       base,
		attrs:      slices.Sorted(slices.Values(syms)),
		attrIDs:    make(map[graph.Attr]int32, len(syms)),
		nodeParent: make([]graph.NodeID, n),
		nodeLabel:  make([]graph.Label, n),
		classAttrs: make([][]attrEntry, n),
		slots:      make([][]attrEntry, n),
		valParent:  make([]Term, 0, 2*stored),
		rootConst:  make([]Term, 0, 2*stored),
		terms:      make([]termInfo, 0, 2*stored),
		constOf:    make(map[graph.Value]Term, stored),
	}
	eq.valForest.links = make([]forestLink, 0, stored)
	for i, a := range eq.attrs {
		eq.attrIDs[a] = int32(i)
	}
	idOf := make([]int32, len(syms)) // snapshot symbol -> attribute id
	for k, a := range syms {
		idOf[k] = eq.attrIDs[a]
	}
	arena := make([]attrEntry, 0, stored) // exact, so cutting lists from it is safe
	for _, id := range base.Nodes() {
		eq.nodeParent[id] = id
		eq.nodeLabel[id] = base.Label(id)
		keys, vals := base.AttrTuple(id)
		lo := len(arena)
		for i, k := range keys {
			// term holds the column position until the slot has its term.
			arena = append(arena, attrEntry{attr: idOf[k], term: Term(i), owner: id})
		}
		own := arena[lo:len(arena):len(arena)]
		slices.SortFunc(own, byAttr)
		for j := range own {
			c := vals[own[j].term]
			own[j].term = eq.newTerm(termInfo{node: id, attr: own[j].attr})
			eq.unionValues(own[j].term, eq.constTerm(c), Reason{Kind: ReasonInitial})
		}
		eq.classAttrs[id], eq.slots[id] = own, own
	}
	return eq
}

// Consistent reports whether no conflict has occurred.
func (eq *Eq) Consistent() bool { return eq.conflict == nil }

// Conflict returns the first conflict, or nil.
func (eq *Eq) Conflict() *Conflict { return eq.conflict }

// Size returns the number of extensions applied, the |Eq| measured by
// the Theorem 1 bound.
func (eq *Eq) Size() int { return eq.size }

// NodeRoot returns the representative of node x's class.
func (eq *Eq) NodeRoot(x graph.NodeID) graph.NodeID {
	for eq.nodeParent[x] != x {
		eq.nodeParent[x] = eq.nodeParent[eq.nodeParent[x]]
		x = eq.nodeParent[x]
	}
	return x
}

// SameNode reports x.id = y.id under Eq.
func (eq *Eq) SameNode(x, y graph.NodeID) bool { return eq.NodeRoot(x) == eq.NodeRoot(y) }

// ClassLabel returns the resolved label of x's class.
func (eq *Eq) ClassLabel(x graph.NodeID) graph.Label { return eq.nodeLabel[eq.NodeRoot(x)] }

// valRoot returns the representative of a value term's class.
func (eq *Eq) valRoot(t Term) Term {
	for eq.valParent[t] != t {
		eq.valParent[t] = eq.valParent[eq.valParent[t]]
		t = eq.valParent[t]
	}
	return t
}

// newTerm allocates a fresh value term.
func (eq *Eq) newTerm(ti termInfo) Term {
	t := Term(len(eq.valParent))
	eq.valParent = append(eq.valParent, t)
	eq.rootConst = append(eq.rootConst, noTerm)
	eq.terms = append(eq.terms, ti)
	eq.size++
	return t
}

// constTerm returns the term for constant c, creating it on first use.
func (eq *Eq) constTerm(c graph.Value) Term {
	if t, ok := eq.constOf[c]; ok {
		return t
	}
	t := eq.newTerm(termInfo{node: graph.NodeID(len(eq.consts)), attr: -1})
	eq.consts = append(eq.consts, c)
	eq.constOf[c] = t
	eq.rootConst[t] = t
	return t
}

// internAttr returns the id of an attribute about to be mentioned; one
// the chase generates gets the next free id.
func (eq *Eq) internAttr(a graph.Attr) int32 {
	id, ok := eq.attrIDs[a]
	if !ok {
		id = int32(len(eq.attrs))
		eq.attrs = append(eq.attrs, a)
		eq.attrIDs[a] = id
	}
	return id
}

// findAttr returns the entry of attribute a in a node's or class's
// (short) entry list.
func findAttr(es []attrEntry, a int32) (attrEntry, bool) {
	for _, e := range es {
		if e.attr == a {
			return e, true
		}
	}
	return attrEntry{term: noTerm}, false
}

// slotRoot is SlotTerm by attribute id.
func (eq *Eq) slotRoot(x graph.NodeID, a int32) (Term, bool) {
	e, ok := findAttr(eq.classAttrs[eq.NodeRoot(x)], a)
	if !ok {
		return noTerm, false
	}
	return eq.valRoot(e.term), true
}

// SlotTerm returns the value term of x.A if node x's class carries
// attribute A, and reports whether it does.
func (eq *Eq) SlotTerm(x graph.NodeID, a graph.Attr) (Term, bool) {
	id, ok := eq.attrIDs[a]
	if !ok {
		return noTerm, false
	}
	return eq.slotRoot(x, id)
}

// ensureSlot returns the term of the slot x.A itself, generating the
// attribute on x's class if absent — the "attribute generation" of
// chase-step cases (1) and (2). A distinct term is kept for every
// textually-mentioned (node, attribute) pair: when x's class already
// carries A through another node's slot, the new slot is unioned with it
// under an IDProp reason (closure rule (d)), so proof-forest
// explanations only ever name slots that some literal mentioned — which
// is what the GED2 side condition of the axiom system needs.
func (eq *Eq) ensureSlot(x graph.NodeID, a int32) Term {
	if e, ok := findAttr(eq.slots[x], a); ok {
		return e.term
	}
	e := attrEntry{attr: a, term: eq.newTerm(termInfo{node: x, attr: a}), owner: x}
	eq.slots[x] = append(eq.slots[x], e)
	r := eq.NodeRoot(x)
	if have, ok := findAttr(eq.classAttrs[r], a); ok {
		eq.unionValues(have.term, e.term, Reason{Kind: ReasonIDProp, U: have.owner, V: x, A: eq.attrs[a]})
		return e.term
	}
	ca := eq.classAttrs[r]
	at, _ := slices.BinarySearchFunc(ca, e, byAttr)
	eq.classAttrs[r] = slices.Insert(ca, at, e)
	return e.term
}

// ClassConst returns the constant bound to value class of term t, if any.
func (eq *Eq) ClassConst(t Term) (graph.Value, bool) {
	ct := eq.rootConst[eq.valRoot(t)]
	if ct == noTerm {
		return graph.Value{}, false
	}
	return eq.consts[eq.terms[ct].node], true
}

// attrConst is AttrConst by attribute id.
func (eq *Eq) attrConst(x graph.NodeID, a int32) (graph.Value, bool) {
	t, ok := eq.slotRoot(x, a)
	if !ok {
		return graph.Value{}, false
	}
	return eq.ClassConst(t)
}

// AttrConst returns the constant bound to x.A, if x's class carries A
// with a constant-bearing class.
func (eq *Eq) AttrConst(x graph.NodeID, a graph.Attr) (graph.Value, bool) {
	id, ok := eq.attrIDs[a]
	if !ok {
		return graph.Value{}, false
	}
	return eq.attrConst(x, id)
}

// sameValue is SameValue by attribute id.
func (eq *Eq) sameValue(x graph.NodeID, a int32, y graph.NodeID, b int32) bool {
	t1, ok1 := eq.slotRoot(x, a)
	t2, ok2 := eq.slotRoot(y, b)
	return ok1 && ok2 && t1 == t2
}

// SameValue reports whether x.A and y.B exist and lie in one value class.
func (eq *Eq) SameValue(x graph.NodeID, a graph.Attr, y graph.NodeID, b graph.Attr) bool {
	t1, ok1 := eq.SlotTerm(x, a)
	t2, ok2 := eq.SlotTerm(y, b)
	return ok1 && ok2 && t1 == t2
}

// bindConst unions x.A with constant c, generating the slot if needed.
func (eq *Eq) bindConst(x graph.NodeID, a graph.Attr, c graph.Value, why Reason) {
	eq.unionValues(eq.ensureSlot(x, eq.internAttr(a)), eq.constTerm(c), why)
}

// bindEqual unions x.A with y.B, generating slots if needed.
func (eq *Eq) bindEqual(x graph.NodeID, a graph.Attr, y graph.NodeID, b graph.Attr, why Reason) {
	s1 := eq.ensureSlot(x, eq.internAttr(a))
	s2 := eq.ensureSlot(y, eq.internAttr(b))
	eq.unionValues(s1, s2, why)
}

// unionValues merges the value classes of terms w1 and w2, recording the
// forest edge between exactly these two terms (the mentioned slots or
// constants, not their class roots). A class may carry at most one
// constant; two distinct constants are an attribute conflict.
func (eq *Eq) unionValues(w1, w2 Term, why Reason) {
	r1, r2 := eq.valRoot(w1), eq.valRoot(w2)
	if r1 == r2 {
		return
	}
	c1, c2 := eq.rootConst[r1], eq.rootConst[r2]
	if c1 != noTerm && c2 != noTerm {
		v1, v2 := eq.consts[eq.terms[c1].node], eq.consts[eq.terms[c2].node]
		if !v1.Equal(v2) {
			eq.fail(&Conflict{Kind: AttrConflict, ConstA: v1, ConstB: v2})
			return
		}
	}
	eq.valParent[r2] = r1
	if c1 == noTerm {
		eq.rootConst[r1] = c2
	}
	eq.valForest.add(int(w1), int(w2), why)
	eq.size++
}

// IdentifyNodes enforces x.id = y.id: it merges the node classes,
// resolves labels under ⪯, and applies closure rule (d) by merging the
// attribute classes of both sides. It is a no-op when already identified.
func (eq *Eq) IdentifyNodes(x, y graph.NodeID, why Reason) {
	r1, r2 := eq.NodeRoot(x), eq.NodeRoot(y)
	if r1 == r2 {
		return
	}
	l1, l2 := eq.nodeLabel[r1], eq.nodeLabel[r2]
	if !graph.LabelsCompatible(l1, l2) {
		eq.fail(&Conflict{Kind: LabelConflict, LabelA: l1, LabelB: l2, NodeA: r1, NodeB: r2})
		return
	}
	eq.nodeParent[r2] = r1
	eq.nodeLabel[r1] = graph.ResolveLabels(l1, l2)
	eq.nodeForest.add(int(x), int(y), why)
	eq.nodeUnions++
	eq.size++

	// Closure rule (d): merge the two ascending attribute lists.
	a1, a2 := eq.classAttrs[r1], eq.classAttrs[r2]
	eq.classAttrs[r2] = nil
	if len(a1) == 0 {
		eq.classAttrs[r1] = a2
		return
	}
	var fresh []attrEntry // r2's attributes that r1's class lacked
	i := 0
	for _, e2 := range a2 {
		for i < len(a1) && a1[i].attr < e2.attr {
			i++
		}
		if i == len(a1) || a1[i].attr != e2.attr {
			fresh = append(fresh, e2)
			continue
		}
		eq.unionValues(a1[i].term, e2.term, Reason{Kind: ReasonIDProp, U: a1[i].owner, V: e2.owner, A: eq.attrs[e2.attr]})
		if !eq.Consistent() {
			return
		}
	}
	if len(fresh) > 0 {
		merged := append(slices.Clip(a1), fresh...)
		slices.SortFunc(merged, byAttr)
		eq.classAttrs[r1] = merged
	}
}

func (eq *Eq) fail(c *Conflict) {
	if eq.conflict == nil {
		eq.conflict = c
	}
}

// classes numbers the node classes in order of their first member:
// classOf maps each node to its class, repOf each class to its
// representative — the node numbering of the coercion G_Eq.
func (eq *Eq) classes() (classOf, repOf []graph.NodeID) {
	classOf = make([]graph.NodeID, len(eq.nodeParent))
	for i := range classOf {
		classOf[i] = -1
	}
	repOf = make([]graph.NodeID, 0, len(classOf)-eq.nodeUnions)
	for id := range classOf {
		r := eq.NodeRoot(graph.NodeID(id))
		if classOf[r] < 0 {
			classOf[r] = graph.NodeID(len(repOf))
			repOf = append(repOf, r)
		}
		classOf[id] = classOf[r]
	}
	return classOf, repOf
}

// skeleton returns G_Eq without its attributes: the class numbering of
// classes, and every base edge transported onto the classes of its
// endpoints, parallel copies folded, in graph.CompareEdges order.
func (eq *Eq) skeleton() (classOf, repOf []graph.NodeID, edges []graph.Edge) {
	classOf, repOf = eq.classes()
	edges = make([]graph.Edge, 0, eq.base.NumEdges())
	for _, u := range eq.base.Nodes() {
		edges = eq.base.AppendOutEdges(edges, u)
	}
	for i := range edges {
		edges[i].Src, edges[i].Dst = classOf[edges[i].Src], classOf[edges[i].Dst]
	}
	slices.SortFunc(edges, graph.CompareEdges)
	return classOf, repOf, slices.Compact(edges)
}

// NodeClasses returns the node classes as a map from representative to
// sorted members.
func (eq *Eq) NodeClasses() map[graph.NodeID][]graph.NodeID {
	out := make(map[graph.NodeID][]graph.NodeID)
	for id := range eq.nodeParent {
		r := eq.NodeRoot(graph.NodeID(id))
		out[r] = append(out[r], graph.NodeID(id))
	}
	return out
}

// ClassAttrs returns the attribute names carried by x's class, sorted.
func (eq *Eq) ClassAttrs(x graph.NodeID) []graph.Attr {
	ca := eq.classAttrs[eq.NodeRoot(x)]
	out := make([]graph.Attr, len(ca))
	for i, e := range ca {
		out[i] = eq.attrs[e.attr]
	}
	slices.Sort(out)
	return out
}
