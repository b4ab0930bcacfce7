// Package graph implements the property-graph data model of
// "Dependencies for Graphs" (Fan & Lu, PODS 2017), Section 2.
//
// A graph G = (V, E, L, F_A) has a finite set of nodes V, a finite set of
// labeled directed edges E ⊆ V × Γ × V, a node labeling L, and a partial
// attribute map F_A assigning each node a finite tuple of attribute/value
// pairs. Graphs are schemaless: a node may or may not carry any given
// attribute, but every node has an implicit, unique id (its NodeID).
//
// The special wildcard label "_" participates in the asymmetric label
// match relation ⪯ (LabelMatches): a wildcard matches any label, but a
// concrete label matches only itself. Ordinary data graphs use concrete
// labels; canonical graphs built from patterns (Section 5) may carry
// wildcards, which is why the relation lives here rather than in the
// pattern matcher.
package graph

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"strings"
)

// Label is a node or edge label drawn from the countably infinite set Γ,
// or the wildcard.
type Label string

// Wildcard is the special label '_' that matches any label (Section 2).
const Wildcard Label = "_"

// LabelMatches reports ι ⪯ ι′: either ι = ι′, or ι is the wildcard.
// The relation is asymmetric — a concrete label does not match the
// wildcard — exactly as the paper defines it.
func LabelMatches(pat, host Label) bool {
	return pat == Wildcard || pat == host
}

// LabelsCompatible reports whether two labels may describe the same node,
// i.e. ι ⪯ ι′ or ι′ ⪯ ι. Merging nodes whose labels are incompatible is
// a label conflict in the chase (Section 4.1).
func LabelsCompatible(a, b Label) bool {
	return LabelMatches(a, b) || LabelMatches(b, a)
}

// ResolveLabels returns the concrete label describing a merged node: the
// non-wildcard one if either is concrete, otherwise the wildcard. It must
// only be called on compatible labels.
func ResolveLabels(a, b Label) Label {
	if a == Wildcard {
		return b
	}
	return a
}

// Attr is an attribute name drawn from the countably infinite set Υ.
// The node identity is not an Attr; it is exposed as NodeID.
type Attr string

// NodeID identifies a node within one Graph. IDs are dense indexes
// assigned in insertion order; they realize the paper's special id
// attribute, which every node has and which is unique.
type NodeID int

// Edge is a labeled directed edge (src, label, dst).
type Edge struct {
	Src   NodeID
	Label Label
	Dst   NodeID
}

// node is the internal per-node record. Its attributes are the paper's
// finite tuple, kept sorted by name: real nodes carry a handful, and a
// slice of them is a fraction of the size of a map holding as many.
type node struct {
	label Label
	attrs []attrVal
}

// attrVal is one attribute/value pair of a node's tuple.
type attrVal struct {
	name Attr
	val  Value
}

// find returns the position of attribute a in n's tuple, or where it
// would be inserted, and whether n carries it.
func (n *node) find(a Attr) (int, bool) {
	return slices.BinarySearchFunc(n.attrs, a, func(p attrVal, a Attr) int { return cmp.Compare(p.name, a) })
}

// Graph is a mutable finite directed labeled property graph. The zero
// value is not usable; construct with New.
type Graph struct {
	nodes   []node
	ids     []NodeID // cache of all ids in insertion order
	edges   map[Edge]struct{}
	out     map[NodeID][]Edge
	in      map[NodeID][]Edge
	byLabel map[Label][]NodeID
	// version counts mutations; a snapshot records the version it was
	// frozen or advanced to, so an unchanged graph is frozen only once.
	version uint64
	// journal records recent version ticks as one op each, so DeltaSince
	// can replay a suffix of the mutation history. Node and edge ops are
	// bounded by the graph itself, but attribute overwrites are not, so
	// the journal is trimmed once it outgrows the graph (see noteOp) —
	// journalBase is the version of the oldest retained op, and
	// DeltaSince answers nil for anything older. Clone does not copy the
	// journal; the clone rebuilds its own as it replays the mutations.
	journal     []op
	journalBase uint64
}

// CatchUpBound is the largest delta, in ops, that a consumer holding a
// snapshot of a graph of size n replays instead of re-freezing: a
// quarter of the graph. The Engine's session catch-up applies a delta
// only within it, and the journal (see noteOp) always keeps at least
// that much history.
func CatchUpBound(n int) int { return n / 4 }

// journalSlack is the history the journal keeps beyond CatchUpBound, so
// a small graph still replays its last few thousand ops. serve logs each
// flush as the delta since its last one, so a batch of up to 4096 graph
// ops (serve's default queue bound, when no op adds a node with
// attributes) always gets one.
const journalSlack = 4096

// noteOp journals one mutation and ticks the version. Once the journal
// holds twice journalSlack + CatchUpBound(|G|) ops it is trimmed to its
// recent half. The half kept still covers every lag within
// CatchUpBound — the graph only grows, so what was a quarter of it at
// the trim stays at least that — so the trim sheds only history no
// consumer would replay, and memory stays O(|G|) even under endless
// attribute overwrites. DeltaSince answers nil for any lag the trim
// dropped, at most one beyond CatchUpBound(|G|) + journalSlack.
func (g *Graph) noteOp(o op) {
	g.journal = append(g.journal, o)
	g.version++
	if limit := 2 * (journalSlack + CatchUpBound(g.Size())); len(g.journal) > limit {
		drop := len(g.journal) - limit/2
		g.journalBase += uint64(drop)
		// Keep the array: the appends up to the next trim then never
		// regrow it. DeltaSince copies ops out, so no reader aliases the
		// slots being overwritten; the vacated tail is cleared so it pins
		// no label or value strings.
		kept := copy(g.journal, g.journal[drop:])
		clear(g.journal[kept:])
		g.journal = g.journal[:kept]
	}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		edges:   make(map[Edge]struct{}),
		out:     make(map[NodeID][]Edge),
		in:      make(map[NodeID][]Edge),
		byLabel: make(map[Label][]NodeID),
	}
}

// AddNode adds a node with the given label and no attributes, returning
// its id.
func (g *Graph) AddNode(label Label) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{label: label})
	g.ids = append(g.ids, id)
	g.byLabel[label] = append(g.byLabel[label], id)
	g.noteOp(op{kind: opAddNode, node: id, name: string(label)})
	return id
}

// AddNodeAttrs adds a node with the given label and attribute tuple.
func (g *Graph) AddNodeAttrs(label Label, attrs map[Attr]Value) NodeID {
	id := g.AddNode(label)
	if len(attrs) > 1 {
		g.nodes[id].attrs = make([]attrVal, 0, len(attrs))
	}
	for a, v := range attrs {
		g.SetAttr(id, a, v)
	}
	return id
}

// AddEdge inserts the directed edge (src, label, dst). Duplicate
// insertions are idempotent, matching the set semantics of E.
func (g *Graph) AddEdge(src NodeID, label Label, dst NodeID) {
	e := Edge{Src: src, Label: label, Dst: dst}
	if _, ok := g.edges[e]; ok {
		return
	}
	g.edges[e] = struct{}{}
	g.out[src] = append(g.out[src], e)
	g.in[dst] = append(g.in[dst], e)
	g.noteOp(op{kind: opAddEdge, node: src, dst: dst, name: string(label)})
}

// HasEdge reports whether the exact edge (src, label, dst) is present.
func (g *Graph) HasEdge(src NodeID, label Label, dst NodeID) bool {
	_, ok := g.edges[Edge{Src: src, Label: label, Dst: dst}]
	return ok
}

// SetAttr sets attribute a of node id to value v, creating it if absent.
func (g *Graph) SetAttr(id NodeID, a Attr, v Value) {
	g.nodes[id].set(a, v)
	g.noteOp(op{kind: opSetAttr, node: id, name: string(a), val: v})
}

// set writes a = v into n's tuple, in name order.
func (n *node) set(a Attr, v Value) {
	if i, ok := n.find(a); ok {
		n.attrs[i].val = v
	} else {
		n.attrs = slices.Insert(n.attrs, i, attrVal{a, v})
	}
}

// Version is the mutation counter: it increments on every AddNode,
// AddEdge and SetAttr, so callers holding a Snapshot (or any derived
// structure) can detect staleness cheaply.
func (g *Graph) Version() uint64 { return g.version }

// Attr returns the value of attribute a at node id, and whether the node
// carries that attribute. Graphs are schemaless, so absence is routine.
func (g *Graph) Attr(id NodeID, a Attr) (Value, bool) {
	n := &g.nodes[id]
	if i, ok := n.find(a); ok {
		return n.attrs[i].val, true
	}
	return Value{}, false
}

// Attrs returns the attribute tuple of node id, in attribute name order.
// The node must not gain attributes while the iteration runs: SetAttr
// of a name it lacks shifts the tuple in place, so the loop may see the
// new pair and skip another. Overwriting an existing attribute is safe.
func (g *Graph) Attrs(id NodeID) iter.Seq2[Attr, Value] {
	attrs := g.nodes[id].attrs
	return func(yield func(Attr, Value) bool) {
		for _, p := range attrs {
			if !yield(p.name, p.val) {
				return
			}
		}
	}
}

// NumAttrs returns how many attributes node id carries.
func (g *Graph) NumAttrs(id NodeID) int { return len(g.nodes[id].attrs) }

// Label returns the label of node id.
func (g *Graph) Label(id NodeID) Label { return g.nodes[id].label }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Size returns |G| = |V| + |E|, the measure used by the chase bound of
// Theorem 1.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Nodes returns all node ids in insertion order. The returned slice is
// the graph's own cache; callers must not mutate it.
func (g *Graph) Nodes() []NodeID { return g.ids }

// Edges returns all edges in a deterministic order, that of CompareEdges.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		es = append(es, e)
	}
	slices.SortFunc(es, CompareEdges)
	return es
}

// CompareEdges orders edges by source, then label, then target.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// Out returns the outgoing edges of node id.
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming edges of node id.
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// NodesWithLabel returns the nodes carrying exactly the given label.
// Wildcard-labeled nodes are returned only for label == Wildcard; use
// CandidateNodes for ⪯-based lookup.
func (g *Graph) NodesWithLabel(label Label) []NodeID { return g.byLabel[label] }

// CandidateNodes returns the nodes a pattern node labeled pat may map to
// under ⪯: every node if pat is the wildcard, otherwise the nodes whose
// label equals pat.
func (g *Graph) CandidateNodes(pat Label) []NodeID {
	if pat == Wildcard {
		return g.Nodes()
	}
	return g.byLabel[pat]
}

// HasAnyEdge reports whether some edge src -> dst exists, under any
// label — the host-side check for wildcard-labeled pattern edges.
func (g *Graph) HasAnyEdge(src, dst NodeID) bool {
	for _, e := range g.out[src] {
		if e.Dst == dst {
			return true
		}
	}
	return false
}

// OutNeighbors returns the distinct targets of src's outgoing edges
// whose label is matched by l under ⪯ (the wildcard matches any label),
// in first-seen order. Deduplication scans the (short) result slice:
// adjacency lists of real graphs are small and this sits on the
// matcher's fallback hot path; Snapshot.OutNeighbors is the
// zero-allocation variant.
func (g *Graph) OutNeighbors(src NodeID, l Label) []NodeID {
	var out []NodeID
	for _, e := range g.out[src] {
		if !LabelMatches(l, e.Label) {
			continue
		}
		if !containsID(out, e.Dst) {
			out = append(out, e.Dst)
		}
	}
	return out
}

// InNeighbors is OutNeighbors for incoming edges: the distinct sources
// of dst's incoming edges whose label is matched by l under ⪯.
func (g *Graph) InNeighbors(dst NodeID, l Label) []NodeID {
	var out []NodeID
	for _, e := range g.in[dst] {
		if !LabelMatches(l, e.Label) {
			continue
		}
		if !containsID(out, e.Src) {
			out = append(out, e.Src)
		}
	}
	return out
}

func containsID(xs []NodeID, n NodeID) bool {
	for _, x := range xs {
		if x == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	for _, n := range g.nodes {
		id := c.AddNode(n.label)
		for _, p := range n.attrs {
			c.SetAttr(id, p.name, p.val)
		}
	}
	for e := range g.edges {
		c.AddEdge(e.Src, e.Label, e.Dst)
	}
	return c
}

// DisjointUnion appends a copy of h to g and returns the mapping from
// h's node ids to their new ids in g. It is the ⊎ used to build canonical
// graphs G_Σ (Section 5.1).
func (g *Graph) DisjointUnion(h *Graph) map[NodeID]NodeID {
	m := make(map[NodeID]NodeID, h.NumNodes())
	for _, id := range h.Nodes() {
		nid := g.AddNode(h.Label(id))
		for a, v := range h.Attrs(id) {
			g.SetAttr(nid, a, v)
		}
		m[id] = nid
	}
	for e := range h.edges {
		g.AddEdge(m[e.Src], e.Label, m[e.Dst])
	}
	return m
}

// String renders the graph in a compact multi-line form for debugging
// and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for i, n := range g.nodes {
		fmt.Fprintf(&b, "n%d:%s", i, n.label)
		if len(n.attrs) > 0 {
			b.WriteString(" {")
			for j, p := range n.attrs {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s=%s", p.name, p.val)
			}
			b.WriteString("}")
		}
		b.WriteString("\n")
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "n%d -%s-> n%d\n", e.Src, e.Label, e.Dst)
	}
	return b.String()
}
