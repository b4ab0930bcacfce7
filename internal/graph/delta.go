package graph

import "sort"

// Graphs are add-only: nodes and edges are inserted, never removed, and
// attributes are set, never unset. A Delta is therefore an add-only
// batch of changes — the Δ of incremental GED validation — anchored
// between two values of the graph's mutation counter. Deltas come from
// two places:
//
//   - Graph.DeltaSince(v) replays the graph's own mutation journal from
//     version v to the present: the automatic capture between two
//     Version() ticks, always exact.
//   - Explicit construction, for producers that know their changes
//     (persist decodes each WAL record back into the delta it logged,
//     for recovery replay and for followers tailing the log).
//
// Snapshot.Apply consumes a Delta to advance a frozen snapshot in time
// proportional to the delta, not the graph.
type Delta struct {
	// FromVersion is the graph version the delta is based on; Apply
	// requires it to equal the snapshot's SourceVersion.
	FromVersion uint64
	// ToVersion is the graph version after the delta; the applied
	// snapshot reports it as its SourceVersion.
	ToVersion uint64

	// Nodes are the added nodes, in insertion order. IDs are dense, so
	// they must be contiguous starting at the base graph's NumNodes.
	Nodes []NodeAdd
	// Edges are the inserted edges. Duplicates (within the delta or
	// against the base) are tolerated and ignored, matching AddEdge's
	// idempotence.
	Edges []Edge
	// Attrs are the attribute writes, in application order: a later
	// write to the same (node, attr) wins, matching SetAttr.
	Attrs []AttrWrite
}

// NodeAdd records one added node.
type NodeAdd struct {
	ID    NodeID
	Label Label
}

// AttrWrite records one SetAttr.
type AttrWrite struct {
	Node  NodeID
	Attr  Attr
	Value Value
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return len(d.Nodes) == 0 && len(d.Edges) == 0 && len(d.Attrs) == 0
}

// Size returns the number of recorded changes |Δ|.
func (d *Delta) Size() int { return len(d.Nodes) + len(d.Edges) + len(d.Attrs) }

// TouchedNodes returns the distinct nodes involved in the delta — added
// nodes, edge endpoints and attribute-write targets — sorted ascending.
// These are exactly the nodes every new violation must touch, so the
// result feeds incremental validation directly.
func (d *Delta) TouchedNodes() []NodeID {
	out := make([]NodeID, 0, len(d.Nodes)+2*len(d.Edges)+len(d.Attrs))
	for _, n := range d.Nodes {
		out = append(out, n.ID)
	}
	for _, e := range d.Edges {
		out = append(out, e.Src, e.Dst)
	}
	for _, w := range d.Attrs {
		out = append(out, w.Node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, n := range out {
		if i == 0 || n != out[i-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup
}

// journal op kinds. Every mutation that ticks the version counter
// appends exactly one op, so the journal index of an op equals the
// version before it was applied — DeltaSince(v) is a slice.
type opKind uint8

const (
	opAddNode opKind = iota
	opAddEdge
	opSetAttr
)

// op is one journaled mutation. The fields are shared between kinds (a
// journal holds thousands of ops per graph, and a union costs 72 bytes
// where a field per use cost 96).
type op struct {
	node NodeID // AddNode: the new id; AddEdge: the source; SetAttr: the target
	dst  NodeID // AddEdge: the target
	name string // AddNode, AddEdge: the label; SetAttr: the attribute
	val  Value  // SetAttr value
	kind opKind
}

// DeltaSince returns the changes applied to g after version v, i.e.
// between two observations of Version(). It panics when v exceeds the
// current version (a delta from the future), and returns nil when the
// journal has been trimmed past v (see noteOp) — the caller's copy is
// then too old to catch up by delta and must re-freeze.
// DeltaSince(g.Version()) is the empty delta.
func (g *Graph) DeltaSince(v uint64) *Delta {
	if v > g.version {
		panic("graph: DeltaSince from a version the graph never had")
	}
	if v < g.journalBase {
		return nil
	}
	d := &Delta{FromVersion: v, ToVersion: g.version}
	ops := g.journal[v-g.journalBase:]
	var nodes, edges int
	for _, o := range ops {
		switch o.kind {
		case opAddNode:
			nodes++
		case opAddEdge:
			edges++
		}
	}
	if nodes > 0 {
		d.Nodes = make([]NodeAdd, 0, nodes)
	}
	if edges > 0 {
		d.Edges = make([]Edge, 0, edges)
	}
	if attrs := len(ops) - nodes - edges; attrs > 0 {
		d.Attrs = make([]AttrWrite, 0, attrs)
	}
	for _, o := range ops {
		switch o.kind {
		case opAddNode:
			d.Nodes = append(d.Nodes, NodeAdd{ID: o.node, Label: Label(o.name)})
		case opAddEdge:
			d.Edges = append(d.Edges, Edge{Src: o.node, Label: Label(o.name), Dst: o.dst})
		default:
			d.Attrs = append(d.Attrs, AttrWrite{Node: o.node, Attr: Attr(o.name), Value: o.val})
		}
	}
	return d
}
