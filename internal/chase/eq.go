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
	"fmt"
	"slices"
	"sort"
	"strings"

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

// forestEdge is one reasoned edge of a proof forest.
type forestEdge struct {
	other  int // Term or NodeID of the other endpoint
	reason Reason
}

// attrEntry is a node class's binding of one attribute: the value term
// and an owner node whose slot witnesses membership (used to anchor
// ReasonIDProp explanations).
type attrEntry struct {
	term  Term
	owner graph.NodeID
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
type Eq struct {
	g *graph.Graph

	// Node union–find with per-root label and attribute map. All four
	// tables are indexed by NodeID (node ids are dense); the label and
	// attribute entries are meaningful at class roots only.
	nodeParent []graph.NodeID
	nodeLabel  []graph.Label
	nodeAttrs  []map[graph.Attr]attrEntry
	nodeForest [][]forestEdge

	// Value union–find. Terms are slots (u.A) or constants.
	valParent []Term
	slotOf    map[slotKey]Term
	slotKeys  []slotKey // per term; zero value for constants
	constOf   map[graph.Value]Term
	constVals []*graph.Value // per term; nil for slots
	rootConst map[Term]Term  // per value root: the constant term in the class
	valForest map[Term][]forestEdge

	conflict *Conflict
	// size counts union operations and term creations, to check the
	// Theorem 1 bound in tests.
	size int
}

type slotKey struct {
	node graph.NodeID
	attr graph.Attr
}

// NewEq returns Eq0 for g: singleton node classes, and for each stored
// attribute x.A = c the class {x.A, c} (Section 4.1's initial relation).
func NewEq(g *graph.Graph) *Eq {
	eq := &Eq{
		g:          g,
		nodeParent: make([]graph.NodeID, g.NumNodes()),
		nodeLabel:  make([]graph.Label, g.NumNodes()),
		nodeAttrs:  make([]map[graph.Attr]attrEntry, g.NumNodes()),
		nodeForest: make([][]forestEdge, g.NumNodes()),
		slotOf:     make(map[slotKey]Term),
		constOf:    make(map[graph.Value]Term),
		rootConst:  make(map[Term]Term),
		valForest:  make(map[Term][]forestEdge),
	}
	for _, id := range g.Nodes() {
		eq.nodeParent[id] = id
		eq.nodeLabel[id] = g.Label(id)
	}
	var names []string
	for _, id := range g.Nodes() {
		attrs := g.Attrs(id)
		names = names[:0]
		for a := range attrs {
			names = append(names, string(a))
		}
		sort.Strings(names)
		for _, a := range names {
			eq.bindConst(id, graph.Attr(a), attrs[graph.Attr(a)], Reason{Kind: ReasonInitial})
		}
	}
	return eq
}

// Graph returns the base graph the relation is over.
func (eq *Eq) Graph() *graph.Graph { return eq.g }

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
func (eq *Eq) newTerm(sk slotKey, cv *graph.Value) Term {
	t := Term(len(eq.valParent))
	eq.valParent = append(eq.valParent, t)
	eq.slotKeys = append(eq.slotKeys, sk)
	eq.constVals = append(eq.constVals, cv)
	eq.size++
	return t
}

// constTerm returns the term for constant c, creating it on first use.
func (eq *Eq) constTerm(c graph.Value) Term {
	if t, ok := eq.constOf[c]; ok {
		return t
	}
	cv := c
	t := eq.newTerm(slotKey{}, &cv)
	eq.constOf[c] = t
	eq.rootConst[t] = t
	return t
}

// SlotTerm returns the value term of x.A if node x's class carries
// attribute A, and reports whether it does.
func (eq *Eq) SlotTerm(x graph.NodeID, a graph.Attr) (Term, bool) {
	r := eq.NodeRoot(x)
	e, ok := eq.nodeAttrs[r][a]
	if !ok {
		return noTerm, false
	}
	return eq.valRoot(e.term), true
}

// ensureSlot returns the value term of x.A, generating the attribute on
// x's class if absent — the "attribute generation" of chase-step cases
// (1) and (2). A distinct term is kept for every textually-mentioned
// (node, attribute) pair: when x's class already carries A through
// another node's slot, the new slot is unioned with it under an IDProp
// reason (closure rule (d)), so proof-forest explanations only ever name
// slots that some literal mentioned — which is what the GED2 side
// condition of the axiom system needs.
func (eq *Eq) ensureSlot(x graph.NodeID, a graph.Attr) Term {
	sk := slotKey{node: x, attr: a}
	if t, ok := eq.slotOf[sk]; ok {
		return eq.valRoot(t)
	}
	r := eq.NodeRoot(x)
	if entry, ok := eq.nodeAttrs[r][a]; ok {
		t := eq.newTerm(sk, nil)
		eq.slotOf[sk] = t
		eq.unionValues(eq.valRoot(entry.term), t, entry.term, t,
			Reason{Kind: ReasonIDProp, U: entry.owner, V: x, A: a})
		return eq.valRoot(t)
	}
	t := eq.newTerm(sk, nil)
	eq.slotOf[sk] = t
	if eq.nodeAttrs[r] == nil {
		eq.nodeAttrs[r] = make(map[graph.Attr]attrEntry)
	}
	eq.nodeAttrs[r][a] = attrEntry{term: t, owner: x}
	return eq.valRoot(t)
}

// ClassConst returns the constant bound to value class of term t, if any.
func (eq *Eq) ClassConst(t Term) (graph.Value, bool) {
	ct, ok := eq.rootConst[eq.valRoot(t)]
	if !ok {
		return graph.Value{}, false
	}
	return *eq.constVals[ct], true
}

// AttrConst returns the constant bound to x.A, if x's class carries A
// with a constant-bearing class.
func (eq *Eq) AttrConst(x graph.NodeID, a graph.Attr) (graph.Value, bool) {
	t, ok := eq.SlotTerm(x, a)
	if !ok {
		return graph.Value{}, false
	}
	return eq.ClassConst(t)
}

// SameValue reports whether x.A and y.B exist and lie in one value class.
func (eq *Eq) SameValue(x graph.NodeID, a graph.Attr, y graph.NodeID, b graph.Attr) bool {
	t1, ok1 := eq.SlotTerm(x, a)
	t2, ok2 := eq.SlotTerm(y, b)
	return ok1 && ok2 && t1 == t2
}

// bindConst unions x.A with constant c, generating the slot if needed.
func (eq *Eq) bindConst(x graph.NodeID, a graph.Attr, c graph.Value, why Reason) {
	t := eq.ensureSlot(x, a)
	// Anchor the forest edge at the concrete slot term, not the class root.
	slot := eq.slotTermForForest(x, a)
	eq.unionValues(t, eq.constTerm(c), slot, eq.constOf[c], why)
}

// bindEqual unions x.A with y.B, generating slots if needed.
func (eq *Eq) bindEqual(x graph.NodeID, a graph.Attr, y graph.NodeID, b graph.Attr, why Reason) {
	t1 := eq.ensureSlot(x, a)
	s1 := eq.slotTermForForest(x, a)
	t2 := eq.ensureSlot(y, b)
	s2 := eq.slotTermForForest(y, b)
	eq.unionValues(t1, t2, s1, s2, why)
}

// slotTermForForest returns the exact term of the mentioned slot (x, a),
// for use as a forest-edge endpoint. ensureSlot must have run first.
func (eq *Eq) slotTermForForest(x graph.NodeID, a graph.Attr) Term {
	return eq.slotOf[slotKey{node: x, attr: a}]
}

// unionValues merges the classes of value roots t1, t2, recording a
// forest edge between witness terms w1, w2. A class may carry at most
// one constant; two distinct constants are an attribute conflict.
func (eq *Eq) unionValues(t1, t2, w1, w2 Term, why Reason) {
	r1, r2 := eq.valRoot(t1), eq.valRoot(t2)
	if r1 == r2 {
		return
	}
	c1, has1 := eq.rootConst[r1]
	c2, has2 := eq.rootConst[r2]
	if has1 && has2 {
		v1, v2 := *eq.constVals[c1], *eq.constVals[c2]
		if !v1.Equal(v2) {
			eq.fail(&Conflict{Kind: AttrConflict, ConstA: v1, ConstB: v2})
			return
		}
	}
	eq.valParent[r2] = r1
	if has2 && !has1 {
		eq.rootConst[r1] = c2
	}
	delete(eq.rootConst, r2)
	if has1 {
		eq.rootConst[r1] = c1
	}
	eq.valForest[w1] = append(eq.valForest[w1], forestEdge{other: int(w2), reason: why})
	eq.valForest[w2] = append(eq.valForest[w2], forestEdge{other: int(w1), reason: why})
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
	eq.nodeForest[x] = append(eq.nodeForest[x], forestEdge{other: int(y), reason: why})
	eq.nodeForest[y] = append(eq.nodeForest[y], forestEdge{other: int(x), reason: why})
	eq.size++

	// Closure rule (d): merge attribute maps.
	a1 := eq.nodeAttrs[r1]
	a2 := eq.nodeAttrs[r2]
	eq.nodeAttrs[r2] = nil
	if a2 == nil {
		return
	}
	if a1 == nil {
		eq.nodeAttrs[r1] = a2
		return
	}
	names := make([]string, 0, len(a2))
	for a := range a2 {
		names = append(names, string(a))
	}
	sort.Strings(names)
	for _, an := range names {
		a := graph.Attr(an)
		e2 := a2[a]
		if e1, ok := a1[a]; ok {
			eq.unionValues(eq.valRoot(e1.term), eq.valRoot(e2.term), e1.term, e2.term,
				Reason{Kind: ReasonIDProp, U: e1.owner, V: e2.owner, A: a})
			if !eq.Consistent() {
				return
			}
		} else {
			a1[a] = e2
		}
	}
}

func (eq *Eq) fail(c *Conflict) {
	if eq.conflict == nil {
		eq.conflict = c
	}
}

// NodeClasses returns the node classes as a map from representative to
// sorted members.
func (eq *Eq) NodeClasses() map[graph.NodeID][]graph.NodeID {
	out := make(map[graph.NodeID][]graph.NodeID)
	for _, id := range eq.g.Nodes() {
		r := eq.NodeRoot(id)
		out[r] = append(out[r], id)
	}
	return out
}

// classAttr is one attribute carried by a node class, with its binding.
type classAttr struct {
	name graph.Attr
	attrEntry
}

// classAttrs returns the attributes carried by root r's class sorted by
// name, reusing buf's backing array.
func (eq *Eq) classAttrs(buf []classAttr, r graph.NodeID) []classAttr {
	buf = buf[:0]
	for a, e := range eq.nodeAttrs[r] {
		buf = append(buf, classAttr{a, e})
	}
	slices.SortFunc(buf, func(x, y classAttr) int { return strings.Compare(string(x.name), string(y.name)) })
	return buf
}

// ClassAttrs returns the attribute names carried by x's class, sorted.
func (eq *Eq) ClassAttrs(x graph.NodeID) []graph.Attr {
	cas := eq.classAttrs(nil, eq.NodeRoot(x))
	out := make([]graph.Attr, len(cas))
	for i, ca := range cas {
		out[i] = ca.name
	}
	return out
}
