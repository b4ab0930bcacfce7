package graph

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
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
// (nodes in id order, edges by source, then label, then target,
// attributes per node in name order), so identical graphs produce
// identical images. Each node's out-list is ordered on its own, never
// the whole edge set, and every column is sized up front, so the export
// allocates nothing per node: only the columns, one scratch row buffer
// and the symbol tables.
func ImageOf(g *Graph) *Image {
	nAttrs, nStrs, maxDeg := 0, 0, 0
	for i := range g.nodes {
		nAttrs += len(g.nodes[i].attrs)
		for _, p := range g.nodes[i].attrs {
			if p.val.Kind() == KindString {
				nStrs++
			}
		}
		maxDeg = max(maxDeg, len(g.out[NodeID(i)]))
	}
	b := newImageBuilder(g.version, len(g.nodes), len(g.edges), nAttrs, nStrs)
	for id, n := range g.nodes {
		b.img.NodeLabel[id] = b.label(n.label)
	}
	out := make([]Edge, 0, maxDeg)
	for id := range g.nodes {
		out = append(out[:0], g.out[NodeID(id)]...)
		if !slices.IsSortedFunc(out, CompareEdges) {
			slices.SortFunc(out, CompareEdges)
		}
		for _, e := range out {
			b.edge(e.Src, b.label(e.Label), e.Dst)
		}
	}
	for id, n := range g.nodes {
		for _, p := range n.attrs {
			b.attrRow(NodeID(id), b.attr(p.name), p.val)
		}
	}
	return b.img
}

// Image exports s as a flat Image: the bytes ImageOf gives for the graph
// s reflects, whether s was frozen or advanced by Apply (the
// differential tests pin the two together). It reads the snapshot's own
// columns and touches no map of the graph: a node's adjacency is already
// grouped by label and sorted by endpoint, so only the order of its
// label runs, and of its attributes, needs fixing where symbols were
// interned out of name order. s is immutable, so Image may run
// concurrently with readers and with Apply building successors. yield,
// when non-nil, runs once every 1024 nodes of each pass: a background
// caller gives way to foreground work there.
func (s *Snapshot) Image(yield func()) *Image {
	nAttrs, nStrs := 0, 0
	for id := 0; id < s.numNodes; id++ {
		seg := s.attrSeg(NodeID(id))
		nAttrs += len(seg.key)
		for _, v := range seg.val {
			if v.Kind() == KindString {
				nStrs++
			}
		}
	}
	b := newImageBuilder(s.version, s.numNodes, s.numEdges, nAttrs, nStrs)
	// Symbol ids map to image indexes as the builder first meets them,
	// which is the order ImageOf meets the same labels and names in.
	labelIdx := make([]uint32, len(s.labels))
	for i := range labelIdx {
		labelIdx[i] = noIndex
	}
	labelOf := func(lid int32) uint32 {
		if labelIdx[lid] == noIndex {
			labelIdx[lid] = b.label(s.labels[lid])
		}
		return labelIdx[lid]
	}
	for id := 0; id < s.numNodes; id++ {
		if yield != nil && id&1023 == 1023 {
			yield()
		}
		b.img.NodeLabel[id] = labelOf(s.nodeLabel[id>>pageShift][id&pageMask])
	}

	labelRank, attrRank := nameRanks(s.labels), nameRanks(s.attrs)
	runs := make([]imageRun, 0, len(s.labels))
	for id := 0; id < s.numNodes; id++ {
		if yield != nil && id&1023 == 1023 {
			yield()
		}
		seg := s.outSeg(NodeID(id))
		runs = runs[:0]
		for lo := 0; lo < len(seg.lbl); {
			hi := lo + 1
			for hi < len(seg.lbl) && seg.lbl[hi] == seg.lbl[lo] {
				hi++
			}
			runs = append(runs, imageRun{rank: labelRank[seg.lbl[lo]], lo: lo, hi: hi})
			lo = hi
		}
		for x := 1; x < len(runs); x++ {
			for y := x; y > 0 && runs[y].rank < runs[y-1].rank; y-- {
				runs[y], runs[y-1] = runs[y-1], runs[y]
			}
		}
		for _, r := range runs {
			l := labelOf(seg.lbl[r.lo])
			for _, dst := range seg.ids[r.lo:r.hi] {
				b.edge(NodeID(id), l, dst)
			}
		}
	}

	attrIdx := make([]uint32, len(s.attrs))
	for i := range attrIdx {
		attrIdx[i] = noIndex
	}
	order := make([]int, 0, len(s.attrs))
	for id := 0; id < s.numNodes; id++ {
		if yield != nil && id&1023 == 1023 {
			yield()
		}
		seg := s.attrSeg(NodeID(id))
		order = order[:0]
		for k := range seg.key {
			order = append(order, k)
			for y := len(order) - 1; y > 0 && attrRank[seg.key[order[y]]] < attrRank[seg.key[order[y-1]]]; y-- {
				order[y], order[y-1] = order[y-1], order[y]
			}
		}
		for _, k := range order {
			aid := seg.key[k]
			if attrIdx[aid] == noIndex {
				attrIdx[aid] = b.attr(s.attrs[aid])
			}
			b.attrRow(NodeID(id), attrIdx[aid], seg.val[k])
		}
	}
	return b.img
}

// imageRun is one label's run of a node's adjacency segment, ranked by
// the label's name.
type imageRun struct {
	rank   int32
	lo, hi int
}

// noIndex marks a symbol the image has not interned yet.
const noIndex = ^uint32(0)

// nameRanks ranks symbols by name: ranks[id] is symbol id's position in
// name order.
func nameRanks[S ~string](syms []S) []int32 {
	byName := make([]int32, len(syms))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return cmp.Compare(syms[a], syms[b]) })
	ranks := make([]int32, len(syms))
	for r, id := range byName {
		ranks[id] = int32(r)
	}
	return ranks
}

// imageBuilder fills an Image's columns, interning labels, attribute
// names and string values in the order rows first name them — the order
// that makes identical graphs export identical images.
type imageBuilder struct {
	img      *Image
	labelIdx map[Label]uint32
	attrIdx  map[Attr]uint32
	// strSlots is an open-addressing index of img.Strings (a slot holds
	// a string's index + 1, 0 when empty), sized once for at least twice
	// the string-valued rows: the export never rehashes, and the table
	// holds no pointers for the collector to trace.
	strSlots []uint32
	strSeed  maphash.Seed
}

// newImageBuilder sizes every column for the given row counts, and the
// string index for strs string-valued rows.
func newImageBuilder(version uint64, nodes, edges, attrs, strs int) *imageBuilder {
	slots := 16
	for slots < 2*strs {
		slots <<= 1
	}
	return &imageBuilder{
		img: &Image{
			Version:   version,
			NodeLabel: make([]uint32, nodes),
			EdgeSrc:   make([]uint32, 0, edges),
			EdgeLabel: make([]uint32, 0, edges),
			EdgeDst:   make([]uint32, 0, edges),
			AttrNode:  make([]uint32, 0, attrs),
			AttrName:  make([]uint32, 0, attrs),
			AttrKind:  make([]uint8, 0, attrs),
			AttrVal:   make([]uint64, 0, attrs),
			Strings:   make([]string, 0, strs),
		},
		labelIdx: make(map[Label]uint32),
		attrIdx:  make(map[Attr]uint32),
		strSlots: make([]uint32, slots),
		strSeed:  maphash.MakeSeed(),
	}
}

func (b *imageBuilder) label(l Label) uint32 {
	if i, ok := b.labelIdx[l]; ok {
		return i
	}
	i := uint32(len(b.img.Labels))
	b.img.Labels = append(b.img.Labels, string(l))
	b.labelIdx[l] = i
	return i
}

func (b *imageBuilder) attr(a Attr) uint32 {
	if i, ok := b.attrIdx[a]; ok {
		return i
	}
	i := uint32(len(b.img.AttrNames))
	b.img.AttrNames = append(b.img.AttrNames, string(a))
	b.attrIdx[a] = i
	return i
}

func (b *imageBuilder) edge(src NodeID, label uint32, dst NodeID) {
	b.img.EdgeSrc = append(b.img.EdgeSrc, uint32(src))
	b.img.EdgeLabel = append(b.img.EdgeLabel, label)
	b.img.EdgeDst = append(b.img.EdgeDst, uint32(dst))
}

// attrRow appends one attribute row: a number's float64 bits, or a
// string's index in the string table.
func (b *imageBuilder) attrRow(id NodeID, name uint32, v Value) {
	img := b.img
	img.AttrNode = append(img.AttrNode, uint32(id))
	img.AttrName = append(img.AttrName, name)
	img.AttrKind = append(img.AttrKind, uint8(v.Kind()))
	if v.Kind() == KindNumber {
		img.AttrVal = append(img.AttrVal, math.Float64bits(v.Num()))
		return
	}
	img.AttrVal = append(img.AttrVal, uint64(b.str(v.Str())))
}

// str interns a string value, returning its index in the string table.
func (b *imageBuilder) str(s string) uint32 {
	mask := uint64(len(b.strSlots) - 1)
	for i := maphash.String(b.strSeed, s) & mask; ; i = (i + 1) & mask {
		slot := b.strSlots[i]
		if slot == 0 {
			b.img.Strings = append(b.img.Strings, s)
			n := uint32(len(b.img.Strings))
			b.strSlots[i] = n
			return n - 1
		}
		if b.img.Strings[slot-1] == s {
			return slot - 1
		}
	}
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
	n := len(img.NodeLabel)
	g := New()
	g.nodes = make([]node, n)
	g.ids = make([]NodeID, n)
	for i, li := range img.NodeLabel {
		l := Label(img.Labels[li])
		g.nodes[i] = node{label: l}
		g.ids[i] = NodeID(i)
		g.byLabel[l] = append(g.byLabel[l], NodeID(i))
	}
	// Every per-node list is carved, at its exact size, out of one
	// arena per kind: one allocation per kind instead of a few per node.
	// The three-index slices keep a later append from running into the
	// next node's share.
	outDeg, inDeg, nAttrs := make([]int32, n), make([]int32, n), make([]int32, n)
	srcs, dsts := 0, 0
	for i := range img.EdgeSrc {
		if outDeg[img.EdgeSrc[i]]++; outDeg[img.EdgeSrc[i]] == 1 {
			srcs++
		}
		if inDeg[img.EdgeDst[i]]++; inDeg[img.EdgeDst[i]] == 1 {
			dsts++
		}
	}
	for _, id := range img.AttrNode {
		nAttrs[id]++
	}
	outArena, inArena := make([]Edge, len(img.EdgeSrc)), make([]Edge, len(img.EdgeSrc))
	attrArena := make([]attrVal, len(img.AttrNode))
	g.edges = make(map[Edge]struct{}, len(img.EdgeSrc))
	g.out, g.in = make(map[NodeID][]Edge, srcs), make(map[NodeID][]Edge, dsts)
	var outOff, inOff, attrOff int32
	for id := range g.nodes {
		if d := outDeg[id]; d > 0 {
			g.out[NodeID(id)] = outArena[outOff : outOff : outOff+d]
			outOff += d
		}
		if d := inDeg[id]; d > 0 {
			g.in[NodeID(id)] = inArena[inOff : inOff : inOff+d]
			inOff += d
		}
		if k := nAttrs[id]; k > 0 {
			g.nodes[id].attrs = attrArena[attrOff : attrOff : attrOff+k]
			attrOff += k
		}
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
