package graph

import (
	"fmt"
	"math"
)

// This file is the persistence contract of the graph package: ApplyDelta
// replays a logical Delta onto a mutable graph (the consumer side of a
// delta WAL), and Image is a flat arena export of a whole graph (the
// payload of a checkpoint file). Together they give a storage layer the
// identity it needs: FromImage(ImageOf(g)) followed by ApplyDelta of the
// journal tail reconstructs g exactly, version counter included.

// ApplyDelta replays d onto g. It requires d.FromVersion == g.Version():
// deltas compose only when applied in sequence, exactly as DeltaSince
// produced them. The delta is validated before any mutation, so a
// returned error leaves g unchanged.
//
// After a successful replay g.Version() == d.ToVersion even when some of
// the delta's ops were no-ops locally (AddEdge is idempotent and does
// not tick the version on duplicates): the version counter is resynced
// to the producer's and the local journal dropped, so a later
// DeltaSince against pre-resync versions answers nil rather than a
// mis-sliced history.
func (g *Graph) ApplyDelta(d *Delta) error {
	if d.FromVersion != g.version {
		return fmt.Errorf("graph: delta from version %d does not apply at version %d", d.FromVersion, g.version)
	}
	n := len(g.nodes)
	for i, na := range d.Nodes {
		if na.ID != NodeID(n+i) {
			return fmt.Errorf("graph: delta node id n%d is not contiguous at %d nodes", na.ID, n+i)
		}
	}
	n += len(d.Nodes)
	for _, e := range d.Edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return fmt.Errorf("graph: delta edge n%d -%s-> n%d references an unknown node", e.Src, e.Label, e.Dst)
		}
	}
	for _, w := range d.Attrs {
		if w.Node < 0 || int(w.Node) >= n {
			return fmt.Errorf("graph: delta attr write to unknown node n%d", w.Node)
		}
	}
	for _, na := range d.Nodes {
		g.AddNode(na.Label)
	}
	for _, e := range d.Edges {
		g.AddEdge(e.Src, e.Label, e.Dst)
	}
	for _, w := range d.Attrs {
		g.SetAttr(w.Node, w.Attr, w.Value)
	}
	if g.version != d.ToVersion {
		g.version = d.ToVersion
		g.journal = nil
		g.journalBase = d.ToVersion
	}
	return nil
}

// Image is a flat, arena-style export of a Graph: every label, attribute
// name and string value interned into a dense symbol table, every node,
// edge and attribute a fixed-width row in a columnar array. The layout
// is what a checkpoint file stores section by section — a loader can
// alias the numeric columns directly onto mmap'd bytes and hand the
// result to FromImage without any per-row decoding.
type Image struct {
	// Version is the graph's mutation counter at export time; FromImage
	// restores it, so deltas journaled after the export still compose.
	Version uint64

	// Symbol tables.
	Labels    []string // node and edge labels
	AttrNames []string // attribute names
	Strings   []string // string attribute values

	// NodeLabel[id] indexes Labels; node ids are the dense 0..n-1.
	NodeLabel []uint32

	// Edge rows, parallel arrays. EdgeLabel indexes Labels.
	EdgeSrc   []uint32
	EdgeLabel []uint32
	EdgeDst   []uint32

	// Attribute rows, parallel arrays. AttrName indexes AttrNames;
	// AttrKind is the ValueKind; AttrVal holds float64 bits for numbers
	// and a Strings index for strings.
	AttrNode []uint32
	AttrName []uint32
	AttrKind []uint8
	AttrVal  []uint64
}

// ImageOf exports g as a flat Image. Rows are emitted deterministically
// (nodes in id order, edges in Edges() order, attributes per node in
// name order), so identical graphs produce identical images. Every
// column is sized up front and each node's tuple is already in name
// order, so the export allocates nothing per node: only the columns,
// the sorted edge list and the symbol tables.
func ImageOf(g *Graph) *Image {
	nAttrs := 0
	for i := range g.nodes {
		nAttrs += len(g.nodes[i].attrs)
	}
	edges := g.Edges()
	img := &Image{
		Version:   g.version,
		NodeLabel: make([]uint32, len(g.nodes)),
		EdgeSrc:   make([]uint32, len(edges)),
		EdgeLabel: make([]uint32, len(edges)),
		EdgeDst:   make([]uint32, len(edges)),
		AttrNode:  make([]uint32, 0, nAttrs),
		AttrName:  make([]uint32, 0, nAttrs),
		AttrKind:  make([]uint8, 0, nAttrs),
		AttrVal:   make([]uint64, 0, nAttrs),
	}
	labelIdx := make(map[Label]uint32)
	labelOf := func(l Label) uint32 {
		if i, ok := labelIdx[l]; ok {
			return i
		}
		i := uint32(len(img.Labels))
		img.Labels = append(img.Labels, string(l))
		labelIdx[l] = i
		return i
	}
	attrIdx := make(map[Attr]uint32)
	attrOf := func(a Attr) uint32 {
		if i, ok := attrIdx[a]; ok {
			return i
		}
		i := uint32(len(img.AttrNames))
		img.AttrNames = append(img.AttrNames, string(a))
		attrIdx[a] = i
		return i
	}
	strIdx := make(map[string]uint32)
	strOf := func(s string) uint32 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint32(len(img.Strings))
		img.Strings = append(img.Strings, s)
		strIdx[s] = i
		return i
	}

	for id, n := range g.nodes {
		img.NodeLabel[id] = labelOf(n.label)
	}
	for i, e := range edges {
		img.EdgeSrc[i] = uint32(e.Src)
		img.EdgeLabel[i] = labelOf(e.Label)
		img.EdgeDst[i] = uint32(e.Dst)
	}
	for id, n := range g.nodes {
		for _, p := range n.attrs {
			img.AttrNode = append(img.AttrNode, uint32(id))
			img.AttrName = append(img.AttrName, attrOf(p.name))
			img.AttrKind = append(img.AttrKind, uint8(p.val.Kind()))
			if p.val.Kind() == KindNumber {
				img.AttrVal = append(img.AttrVal, math.Float64bits(p.val.Num()))
			} else {
				img.AttrVal = append(img.AttrVal, uint64(strOf(p.val.Str())))
			}
		}
	}
	return img
}

// FromImage rebuilds a Graph from an Image. Every index is bounds
// checked, so a corrupted image yields an error, never a panic. The
// rebuilt graph starts with an empty journal based at img.Version: its
// history begins where the image was cut, exactly like a graph whose
// journal was trimmed.
func (img *Image) validate() error {
	if len(img.EdgeSrc) != len(img.EdgeLabel) || len(img.EdgeSrc) != len(img.EdgeDst) {
		return fmt.Errorf("graph: image edge columns disagree (%d/%d/%d rows)",
			len(img.EdgeSrc), len(img.EdgeLabel), len(img.EdgeDst))
	}
	if len(img.AttrNode) != len(img.AttrName) || len(img.AttrNode) != len(img.AttrKind) || len(img.AttrNode) != len(img.AttrVal) {
		return fmt.Errorf("graph: image attr columns disagree (%d/%d/%d/%d rows)",
			len(img.AttrNode), len(img.AttrName), len(img.AttrKind), len(img.AttrVal))
	}
	nNodes, nLabels := uint32(len(img.NodeLabel)), uint32(len(img.Labels))
	for _, li := range img.NodeLabel {
		if li >= nLabels {
			return fmt.Errorf("graph: image node label index %d out of range", li)
		}
	}
	for i := range img.EdgeSrc {
		if img.EdgeSrc[i] >= nNodes || img.EdgeDst[i] >= nNodes {
			return fmt.Errorf("graph: image edge row %d references an unknown node", i)
		}
		if img.EdgeLabel[i] >= nLabels {
			return fmt.Errorf("graph: image edge row %d label index out of range", i)
		}
	}
	for i := range img.AttrNode {
		if img.AttrNode[i] >= nNodes {
			return fmt.Errorf("graph: image attr row %d references an unknown node", i)
		}
		if img.AttrName[i] >= uint32(len(img.AttrNames)) {
			return fmt.Errorf("graph: image attr row %d name index out of range", i)
		}
		switch ValueKind(img.AttrKind[i]) {
		case KindNumber:
		case KindString:
			if img.AttrVal[i] >= uint64(len(img.Strings)) {
				return fmt.Errorf("graph: image attr row %d string index out of range", i)
			}
		default:
			return fmt.Errorf("graph: image attr row %d has unknown value kind %d", i, img.AttrKind[i])
		}
	}
	return nil
}

// FromImage rebuilds the exported graph; see Image.
func FromImage(img *Image) (*Graph, error) {
	if err := img.validate(); err != nil {
		return nil, err
	}
	g := New()
	g.nodes = make([]node, len(img.NodeLabel))
	g.ids = make([]NodeID, len(img.NodeLabel))
	for i, li := range img.NodeLabel {
		l := Label(img.Labels[li])
		g.nodes[i] = node{label: l}
		g.ids[i] = NodeID(i)
		g.byLabel[l] = append(g.byLabel[l], NodeID(i))
	}
	for i := range img.EdgeSrc {
		e := Edge{Src: NodeID(img.EdgeSrc[i]), Label: Label(img.Labels[img.EdgeLabel[i]]), Dst: NodeID(img.EdgeDst[i])}
		if _, dup := g.edges[e]; dup {
			continue
		}
		g.edges[e] = struct{}{}
		g.out[e.Src] = append(g.out[e.Src], e)
		g.in[e.Dst] = append(g.in[e.Dst], e)
	}
	for i := range img.AttrNode {
		var v Value
		if ValueKind(img.AttrKind[i]) == KindNumber {
			v = Number(math.Float64frombits(img.AttrVal[i]))
		} else {
			v = String(img.Strings[img.AttrVal[i]])
		}
		g.nodes[img.AttrNode[i]].set(Attr(img.AttrNames[img.AttrName[i]]), v)
	}
	g.version = img.Version
	g.journalBase = img.Version
	return g, nil
}
