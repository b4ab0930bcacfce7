package graph

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Snapshot is a frozen, read-optimized view of a Graph: the storage
// layout production graph matchers use. Labels, attribute names and
// attribute values are interned into dense ints; each node's in/out
// adjacency is one segment grouped and sorted by (edge label, endpoint),
// so "neighbors of v via label ι" is one contiguous slice and HasEdge is
// a binary search; per-label node postings replace the byLabel map;
// value postings serve the (attribute, value) pairs readers declare by
// looking them up; and per-label degree statistics feed the matcher's
// planning heuristics.
//
// Storage is page-chunked: the per-node tables (label symbols, adjacency
// segments, attribute tuples) are arrays of fixed-size pages, and every
// segment of a freshly frozen snapshot is a view into one flat arena.
// The chunking exists for Apply: advancing a snapshot by a Delta clones
// only the pages and label postings the delta touches and shares every
// other backing array with the parent — copy-on-write at page and
// label-group granularity, so maintenance is O(|Δ| + touched adjacency)
// instead of O(|G|).
//
// A Snapshot is immutable and safe for unsynchronized concurrent
// readers. It reflects the graph at Freeze (or Apply) time: later
// mutations of the source graph are not visible (compare Graph.Version
// against SourceVersion to detect staleness, and use Apply with
// Graph.DeltaSince to catch up). All slices returned by Snapshot methods
// are the snapshot's own storage; callers must not mutate them.
type Snapshot struct {
	// symbol tables; shared with the parent unless the delta interned
	// new symbols (ids are append-only, so a child's symbols extend its
	// parent's).
	labels   []Label
	labelIDs map[Label]int32
	attrs    []Attr
	attrIDs  map[Attr]int32

	// nodes
	numNodes  int
	ids       []NodeID     // identity prefix, shared process-wide
	nodeLabel pages[int32] // node -> label symbol

	// per-node adjacency segments; within a segment entries are sorted
	// by (label symbol, other endpoint).
	out pages[adjSeg]
	in  pages[adjSeg]

	// per-node attribute tuples, sorted by attr symbol.
	attr pages[attrSeg]

	// per-label postings and degree totals; indexed by label symbol,
	// sized to the node-label symbols only (edge-only labels have no
	// nodes and fall outside the slice). labelDegTotal[l] is the summed
	// in+out degree of the posting's nodes.
	labelNodes    [][]NodeID
	labelDegTotal []int64
	// labelTail[l], when non-nil, is the length claimed so far in the
	// backing array of labelNodes[l], shared by every snapshot whose
	// posting lives in that array. A posting only grows at its end (an
	// added node has the largest id yet), so Apply appends a child's new
	// nodes in place whenever it can claim its parent's length: one
	// child per length wins, any other copies. Each snapshot reads only
	// up to its own length, and a flush pays O(added nodes), not
	// O(label).
	labelTail []*atomic.Int64

	// (attr, value) -> nodes carrying that binding, ascending by id, for
	// the declared pairs only: a pair is declared by its first lookup on
	// a snapshot (in practice a plan compiling a constant literal x.A = c
	// of Σ), which builds its posting with one column scan. Apply carries
	// the declared set forward and updates it eagerly, in O(batch): a
	// delta touches a posting only when it moves a node into or out of
	// that pair.
	// Freeze and Quotient declare nothing. postingsMu serializes
	// declarations; readers load the published set without it.
	postingsMu sync.Mutex
	postings   atomic.Pointer[postingSet]

	numEdges int
	version  uint64
	// lineage identifies the Freeze root this snapshot derives from;
	// Apply preserves it. Two snapshots with equal lineage share one
	// append-only symbol universe, which is what lets compiled matcher
	// plans rebind between them without re-resolving from strings.
	lineage uint64
}

// adjSeg is one node's adjacency in one direction.
type adjSeg struct {
	lbl []int32
	ids []NodeID
}

// attrSeg is one node's attribute tuple.
type attrSeg struct {
	key []int32
	val []Value
}

// Pages are 64 entries: small enough that Apply's per-dirty-page
// copies (the dominant cost of a scattered small delta — each clone
// copies a full page of segment headers) stay proportional to the
// touched neighborhood, big enough that the outer page tables — which
// Apply clones whole, one pointer per page — stay a small fraction of a
// percent of the graph.
const (
	pageShift = 6
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// pages is a per-node table cut into fixed-size pages: entry id lives
// at [id>>pageShift][id&pageMask], so a read is one bounds check on the
// outer table and none inside the page. A page is written only by the
// snapshot that allocated or cloned it, before that snapshot is
// published; snapshots of a lineage share the rest. Every entry at or
// past a snapshot's node count is zero in each page it reads: pages
// start zeroed, and an owner writes only its own nodes.
type pages[T any] []*[pageSize]T

// newPages returns a zeroed table for n entries, its pages views into
// one arena padded to a whole page.
func newPages[T any](n int) pages[T] {
	arena := make([]T, (n+pageMask)&^pageMask)
	pgs := make(pages[T], len(arena)>>pageShift)
	for p := range pgs {
		pgs[p] = (*[pageSize]T)(arena[p<<pageShift:])
	}
	return pgs
}

// at returns entry id.
func (pgs pages[T]) at(id NodeID) *T { return &pgs[id>>pageShift][id&pageMask] }

type postingKey struct {
	attr int32
	val  Value
}

// valuePosting is one declared (attr, value) pair's nodes, ascending by
// id. Like a label posting it only grows at its end when nodes are
// added, so its backing array and tail counter are shared along the
// lineage in the same way (see labelTail and growPosting).
type valuePosting struct {
	ids  []NodeID
	tail *atomic.Int64
}

// postingSet maps each declared pair to its posting. A published set is
// never written again: declaring a pair or applying a delta that moves
// one publishes a copy.
type postingSet map[postingKey]valuePosting

// get returns pair pk's nodes and whether pk is declared in ps, which
// may be nil.
func (ps *postingSet) get(pk postingKey) ([]NodeID, bool) {
	if ps == nil {
		return nil, false
	}
	p, ok := (*ps)[pk]
	return p.ids[:len(p.ids):len(p.ids)], ok // the spare capacity belongs to successors
}

// identity ids are shared process-wide: every snapshot's Nodes() is a
// prefix of one immutable [0,1,2,...] table, grown under a lock and
// published atomically, so neither Freeze nor Apply materializes it.
var (
	identityMu  sync.Mutex
	identityTab atomic.Value // []NodeID
)

func identityIDs(n int) []NodeID {
	tab, _ := identityTab.Load().([]NodeID)
	if len(tab) < n {
		identityMu.Lock()
		tab, _ = identityTab.Load().([]NodeID)
		if len(tab) < n {
			m := 1024
			for m < n {
				m *= 2
			}
			tab = make([]NodeID, m)
			for i := range tab {
				tab[i] = NodeID(i)
			}
			identityTab.Store(tab)
		}
		identityMu.Unlock()
	}
	return tab[:n:n]
}

var lineageCounter atomic.Uint64

func (s *Snapshot) internLabel(l Label) int32 {
	if id, ok := s.labelIDs[l]; ok {
		return id
	}
	id := int32(len(s.labels))
	s.labels = append(s.labels, l)
	s.labelIDs[l] = id
	return id
}

func (s *Snapshot) internAttr(a Attr) int32 {
	if id, ok := s.attrIDs[a]; ok {
		return id
	}
	id := int32(len(s.attrs))
	s.attrs = append(s.attrs, a)
	s.attrIDs[a] = id
	return id
}

// Freeze builds a read-only Snapshot of g. The cost is one pass over
// nodes, edges and attributes plus a global sort of each adjacency
// direction — the price is paid once and amortized across every match
// enumeration run against the result; later mutations are folded in
// with Apply instead of re-freezing.
func (g *Graph) Freeze() *Snapshot {
	n := len(g.nodes)
	s := &Snapshot{
		labelIDs: make(map[Label]int32),
		attrIDs:  make(map[Attr]int32),
		numNodes: n,
		numEdges: len(g.edges),
		version:  g.version,
		lineage:  lineageCounter.Add(1),
	}
	s.ids = identityIDs(n)

	// Nodes, node-label symbols and per-label postings. Node labels are
	// interned first so labelNodes/labelDegTotal cover exactly the
	// symbols that can have postings.
	s.nodeLabel = newPages[int32](n)
	for i := range g.nodes {
		*s.nodeLabel.at(NodeID(i)) = s.internLabel(g.nodes[i].label)
	}
	s.labelNodes = make([][]NodeID, len(s.labels))
	for i := 0; i < n; i++ {
		lid := *s.nodeLabel.at(NodeID(i))
		s.labelNodes[lid] = append(s.labelNodes[lid], NodeID(i))
	}
	s.labelTail = make([]*atomic.Int64, len(s.labelNodes))
	for lid, p := range s.labelNodes {
		s.labelTail[lid] = new(atomic.Int64)
		s.labelTail[lid].Store(int64(len(p)))
	}

	// Adjacency segments, label-grouped and sorted: edges are gathered
	// once into parallel arrays and permuted by two global sorts — one
	// per direction — rather than 2n per-node sorts.
	s.buildAdjacency(g, n)

	s.sumLabelDegrees()

	// Attribute tuples in one arena, paged into per-node segments.
	total := 0
	for i := range g.nodes {
		total += len(g.nodes[i].attrs)
	}
	keyArena := make([]int32, 0, total)
	valArena := make([]Value, 0, total)
	s.attr = newPages[attrSeg](n)
	type kv struct {
		key int32
		val Value
	}
	var scratch []kv
	for i := range g.nodes {
		scratch = scratch[:0]
		for _, p := range g.nodes[i].attrs {
			scratch = append(scratch, kv{s.internAttr(p.name), p.val})
		}
		// Attribute tuples are tiny; insertion sort avoids a sort.Slice
		// closure per node.
		for x := 1; x < len(scratch); x++ {
			for y := x; y > 0 && scratch[y].key < scratch[y-1].key; y-- {
				scratch[y], scratch[y-1] = scratch[y-1], scratch[y]
			}
		}
		base := len(keyArena)
		for _, p := range scratch {
			keyArena = append(keyArena, p.key)
			valArena = append(valArena, p.val)
		}
		*s.attr.at(NodeID(i)) = attrSeg{
			key: keyArena[base:len(keyArena):len(keyArena)],
			val: valArena[base:len(valArena):len(valArena)],
		}
	}
	return s
}

// buildAdjacency lays out both directions: per-node (label symbol,
// endpoint) segments sorted by (label, endpoint) so per-label neighbor
// runs are contiguous. Edges are flattened once and permuted by one
// global sort per direction; the segments are views into the flat
// arenas.
func (s *Snapshot) buildAdjacency(g *Graph, n int) {
	m := len(g.edges)
	esrc := make([]NodeID, 0, m)
	elbl := make([]int32, 0, m)
	edst := make([]NodeID, 0, m)
	for i := 0; i < n; i++ {
		for _, e := range g.out[NodeID(i)] {
			esrc = append(esrc, e.Src)
			elbl = append(elbl, s.internLabel(e.Label))
			edst = append(edst, e.Dst)
		}
	}
	s.layoutAdjacency(n, esrc, elbl, edst)
}

// layoutAdjacency is buildAdjacency's second half: it lays the distinct
// edges (esrc[i], elbl[i], edst[i]) over n nodes out as both directions'
// sorted segments.
func (s *Snapshot) layoutAdjacency(n int, esrc []NodeID, elbl []int32, edst []NodeID) {
	m := len(esrc)
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}

	layout := func(major, minor []NodeID) pages[adjSeg] {
		less := edgeOrder(major, elbl, minor)
		sort.Slice(perm, func(x, y int) bool { return less(perm[x], perm[y]) })
		off := make([]int32, n+1)
		lblArena := make([]int32, m)
		idArena := make([]NodeID, m)
		for i, p := range perm {
			off[major[p]+1]++
			lblArena[i] = elbl[p]
			idArena[i] = minor[p]
		}
		for i := 0; i < n; i++ {
			off[i+1] += off[i]
		}
		segs := newPages[adjSeg](n)
		for i := 0; i < n; i++ {
			lo, hi := off[i], off[i+1]
			*segs.at(NodeID(i)) = adjSeg{lbl: lblArena[lo:hi:hi], ids: idArena[lo:hi:hi]}
		}
		return segs
	}
	s.out = layout(esrc, edst)
	s.in = layout(edst, esrc)
}

// edgeOrder orders edge indexes by (major endpoint, label, minor
// endpoint) — the order of a node's adjacency segment.
func edgeOrder(major []NodeID, lbl []int32, minor []NodeID) func(a, b int32) bool {
	return func(a, b int32) bool {
		if major[a] != major[b] {
			return major[a] < major[b]
		}
		if lbl[a] != lbl[b] {
			return lbl[a] < lbl[b]
		}
		return minor[a] < minor[b]
	}
}

// sumLabelDegrees fills labelDegTotal, the per-label total degree that
// seeds match plans, from the label postings and the adjacency.
func (s *Snapshot) sumLabelDegrees() {
	s.labelDegTotal = make([]int64, len(s.labelNodes))
	for lid, nodes := range s.labelNodes {
		total := int64(0)
		for _, id := range nodes {
			total += int64(s.OutDegree(id) + s.InDegree(id))
		}
		s.labelDegTotal[lid] = total
	}
}

// Quotient returns the snapshot of s's quotient by a node partition:
// node u of s becomes node classOf[u] (classes are numbered densely,
// 0..len(labels)-1), class c is labeled labels[c] — which must be the
// label of some node of s — and every edge is transported onto the
// classes of its endpoints, parallel copies folding into one.
// Attributes are not carried over: the quotient is the match host of a
// chase round (the coercion G_Eq of Section 4.1 minus F_A), and the
// chase reads attribute values off its equivalence relation, never off
// the host. The result shares s's symbol tables and starts a lineage of
// its own.
func (s *Snapshot) Quotient(classOf []NodeID, labels []Label) *Snapshot {
	n := len(labels)
	q := &Snapshot{
		labels: s.labels, labelIDs: s.labelIDs,
		attrs: s.attrs, attrIDs: s.attrIDs,
		numNodes: n,
		ids:      identityIDs(n),
		version:  s.version,
		lineage:  lineageCounter.Add(1),
	}
	q.nodeLabel = newPages[int32](n)
	q.labelNodes = make([][]NodeID, len(s.labels))
	for c, l := range labels {
		lid, ok := s.labelIDs[l]
		if !ok {
			panic("graph: quotient class labeled outside the snapshot's labels")
		}
		*q.nodeLabel.at(NodeID(c)) = lid
		q.labelNodes[lid] = append(q.labelNodes[lid], NodeID(c))
	}

	// Transport every edge, then sort the triples to drop the copies
	// that merged endpoints made parallel.
	m := s.numEdges
	esrc := make([]NodeID, 0, m)
	elbl := make([]int32, 0, m)
	edst := make([]NodeID, 0, m)
	for u := 0; u < s.numNodes; u++ {
		seg := s.outSeg(NodeID(u))
		for i, d := range seg.ids {
			esrc = append(esrc, classOf[u])
			elbl = append(elbl, seg.lbl[i])
			edst = append(edst, classOf[d])
		}
	}
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	less := edgeOrder(esrc, elbl, edst)
	sort.Slice(perm, func(x, y int) bool { return less(perm[x], perm[y]) })
	usrc := make([]NodeID, 0, m)
	ulbl := make([]int32, 0, m)
	udst := make([]NodeID, 0, m)
	for _, p := range perm {
		if k := len(usrc) - 1; k >= 0 && usrc[k] == esrc[p] && ulbl[k] == elbl[p] && udst[k] == edst[p] {
			continue
		}
		usrc = append(usrc, esrc[p])
		ulbl = append(ulbl, elbl[p])
		udst = append(udst, edst[p])
	}
	q.numEdges = len(usrc)
	q.layoutAdjacency(n, usrc, ulbl, udst)
	q.sumLabelDegrees()
	q.attr = newPages[attrSeg](n)
	return q
}

// ---- paged accessors ----

func (s *Snapshot) outSeg(id NodeID) *adjSeg   { return s.out.at(id) }
func (s *Snapshot) inSeg(id NodeID) *adjSeg    { return s.in.at(id) }
func (s *Snapshot) attrSeg(id NodeID) *attrSeg { return s.attr.at(id) }

// ---- node accessors ----

// NumNodes returns |V| at freeze time.
func (s *Snapshot) NumNodes() int { return s.numNodes }

// NumEdges returns |E| at freeze time.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// Size returns |G| = |V| + |E|.
func (s *Snapshot) Size() int { return s.numNodes + s.numEdges }

// Nodes returns all node ids in insertion order.
func (s *Snapshot) Nodes() []NodeID { return s.ids }

// Label returns the label of node id.
func (s *Snapshot) Label(id NodeID) Label {
	return s.labels[*s.nodeLabel.at(id)]
}

// SourceVersion is the mutation counter of the source graph at Freeze
// (or Apply) time; comparing it against Graph.Version detects staleness.
func (s *Snapshot) SourceVersion() uint64 { return s.version }

// Lineage identifies the Freeze root this snapshot derives from: a
// snapshot and any snapshot produced from it by Apply share a lineage,
// and with it one append-only symbol universe. Compiled plans may be
// enumerated over any snapshot of the lineage they were compiled on.
func (s *Snapshot) Lineage() uint64 { return s.lineage }

// Attr returns the value of attribute a at node id, and whether the
// node carries it, by binary search over the node's interned tuple.
func (s *Snapshot) Attr(id NodeID, a Attr) (Value, bool) {
	aid, ok := s.attrIDs[a]
	if !ok {
		return Value{}, false
	}
	return s.AttrValueID(id, aid)
}

// AttrSymbols returns the attribute names by symbol: AttrSymbols()[k]
// is the name AttrTuple's keys call k.
func (s *Snapshot) AttrSymbols() []Attr { return s.attrs }

// AttrTuple returns node id's attribute tuple as parallel columns of
// attribute symbols and values, ascending by symbol — the whole-tuple
// counterpart of AttrValueID for readers that visit every stored
// attribute once (the chase's initial relation Eq0).
func (s *Snapshot) AttrTuple(id NodeID) ([]int32, []Value) {
	seg := s.attrSeg(id)
	return seg.key, seg.val
}

// ---- label postings ----

// NodesWithLabel returns the nodes carrying exactly the given label
// (wildcard-labeled nodes only for label == Wildcard), mirroring
// Graph.NodesWithLabel.
func (s *Snapshot) NodesWithLabel(label Label) []NodeID {
	lid, ok := s.labelIDs[label]
	if !ok {
		return nil
	}
	return s.CandidateNodesID(lid)
}

// CandidateNodes returns the nodes a pattern node labeled pat may map
// to under ⪯: every node for the wildcard, otherwise the label posting.
func (s *Snapshot) CandidateNodes(pat Label) []NodeID {
	if pat == Wildcard {
		return s.ids
	}
	return s.NodesWithLabel(pat)
}

// LabelCount returns how many nodes carry the label (all nodes for the
// wildcard).
func (s *Snapshot) LabelCount(l Label) int {
	if l == Wildcard {
		return s.numNodes
	}
	return len(s.NodesWithLabel(l))
}

// LabelAvgDegree returns the average total (in+out) degree of the nodes
// carrying l — the density statistic the matcher's planner uses to
// prefer well-connected seeds among equally selective ones. For the
// wildcard it is the graph-wide average.
func (s *Snapshot) LabelAvgDegree(l Label) float64 {
	if l == Wildcard {
		if s.numNodes == 0 {
			return 0
		}
		return 2 * float64(s.numEdges) / float64(s.numNodes)
	}
	lid, ok := s.labelIDs[l]
	if !ok || int(lid) >= len(s.labelNodes) || len(s.labelNodes[lid]) == 0 {
		return 0
	}
	return float64(s.labelDegTotal[lid]) / float64(len(s.labelNodes[lid]))
}

// ---- adjacency ----

// labelRun returns the [lo, hi) bounds of the lid-labeled run inside a
// node's sorted segment. The binary searches are hand-rolled: this sits
// on the matcher's innermost loop, where the sort.Search closure costs
// show up.
func labelRun(lbls []int32, lid int32) (int, int) {
	lo, hi := 0, len(lbls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lbls[mid] < lid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	hi = len(lbls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lbls[mid] <= lid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return start, lo
}

// OutNeighbors returns the distinct targets of src's outgoing edges
// whose label is matched by l under ⪯ (the wildcard matches any label).
// For a concrete label this is a zero-allocation sub-slice of the
// segment's label run; for the wildcard the per-label runs are merged
// and deduplicated.
func (s *Snapshot) OutNeighbors(src NodeID, l Label) []NodeID {
	seg := s.outSeg(src)
	if l != Wildcard {
		lid, ok := s.labelIDs[l]
		if !ok {
			return nil
		}
		lo, hi := labelRun(seg.lbl, lid)
		return seg.ids[lo:hi]
	}
	if len(seg.ids) <= 1 {
		return seg.ids
	}
	return dedupNeighbors(nil, seg.ids)
}

// InNeighbors is OutNeighbors for incoming edges: the distinct sources
// of dst's incoming edges whose label is matched by l under ⪯.
func (s *Snapshot) InNeighbors(dst NodeID, l Label) []NodeID {
	seg := s.inSeg(dst)
	if l != Wildcard {
		lid, ok := s.labelIDs[l]
		if !ok {
			return nil
		}
		lo, hi := labelRun(seg.lbl, lid)
		return seg.ids[lo:hi]
	}
	if len(seg.ids) <= 1 {
		return seg.ids
	}
	return dedupNeighbors(nil, seg.ids)
}

// AppendOutNeighbors appends the distinct targets of src's outgoing
// wildcard-matched edges to buf and returns it — the allocation-free
// variant of OutNeighbors(src, Wildcard) for callers (the matcher's
// pooled scratch) that recycle buffers.
func (s *Snapshot) AppendOutNeighbors(buf []NodeID, src NodeID) []NodeID {
	return dedupNeighbors(buf, s.outSeg(src).ids)
}

// AppendInNeighbors is AppendOutNeighbors for incoming edges.
func (s *Snapshot) AppendInNeighbors(buf []NodeID, dst NodeID) []NodeID {
	return dedupNeighbors(buf, s.inSeg(dst).ids)
}

// AppendOutEdges appends src's outgoing edges, labels resolved, to buf
// and returns it. They come in the order of src's adjacency segment: by
// label symbol, then target.
func (s *Snapshot) AppendOutEdges(buf []Edge, src NodeID) []Edge {
	seg := s.outSeg(src)
	for i, d := range seg.ids {
		buf = append(buf, Edge{Src: src, Label: s.labels[seg.lbl[i]], Dst: d})
	}
	return buf
}

// dedupNeighbors appends the distinct ids of seg to buf in first-seen
// order; the result never aliases snapshot storage, so callers may
// recycle it as the buf of a later call. The input segment is sorted by
// (label, id), so ids may repeat across labels; real adjacency lists
// are short, and the linear scan avoids a sort (and its closure) on the
// matcher's hot path.
func dedupNeighbors(buf []NodeID, seg []NodeID) []NodeID {
	out := buf
	for _, d := range seg {
		dup := false
		for _, x := range out {
			if x == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

// HasEdge reports whether the exact edge (src, label, dst) is present:
// a label-run lookup plus a binary search over its sorted targets.
func (s *Snapshot) HasEdge(src NodeID, label Label, dst NodeID) bool {
	lid, ok := s.labelIDs[label]
	if !ok {
		return false
	}
	return s.HasEdgeID(src, lid, dst)
}

// HasAnyEdge reports whether some edge src -> dst exists, under any
// label — the host-side check for wildcard-labeled pattern edges.
func (s *Snapshot) HasAnyEdge(src, dst NodeID) bool {
	for _, d := range s.outSeg(src).ids {
		if d == dst {
			return true
		}
	}
	return false
}

// OutDegree returns the number of outgoing edges of id.
func (s *Snapshot) OutDegree(id NodeID) int { return len(s.outSeg(id).ids) }

// InDegree returns the number of incoming edges of id.
func (s *Snapshot) InDegree(id NodeID) int { return len(s.inSeg(id).ids) }

// ---- the folded-in attribute-value index ----

// Lookup returns the nodes with attribute a equal to v, ascending by
// id — the access path that turns constant antecedent literals into
// index probes. The first lookup of a pair declares it (see
// LookupAttrID).
func (s *Snapshot) Lookup(a Attr, v Value) []NodeID {
	aid, ok := s.attrIDs[a]
	if !ok {
		return nil
	}
	return s.LookupAttrID(aid, v)
}

// LookupAttrID is Lookup for a resolved attribute symbol — the form
// compiled matcher plans fetch their pushed-down literal postings
// through, at Compile and when an enumeration starts. The first lookup
// of a pair on a snapshot declares it: one scan of the attribute column
// builds its posting, and every snapshot Apply derives from this one
// keeps it up to date, so a later lookup there is one map read.
func (s *Snapshot) LookupAttrID(aid int32, v Value) []NodeID {
	pk := postingKey{attr: aid, val: v}
	if ids, ok := s.postings.Load().get(pk); ok {
		return ids
	}
	s.postingsMu.Lock()
	defer s.postingsMu.Unlock()
	old := s.postings.Load()
	if ids, ok := old.get(pk); ok {
		return ids
	}
	var ids []NodeID
	for i := 0; i < s.numNodes; i++ {
		if val, ok := s.AttrValueID(NodeID(i), aid); ok && val == v {
			ids = append(ids, NodeID(i))
		}
	}
	tail := new(atomic.Int64)
	tail.Store(int64(len(ids)))
	next := postingSet{}
	if old != nil {
		next = maps.Clone(*old)
	}
	next[pk] = valuePosting{ids: ids, tail: tail}
	s.postings.Store(&next)
	return ids[:len(ids):len(ids)]
}

// HasAttr reports whether any node carries attribute a.
func (s *Snapshot) HasAttr(a Attr) bool {
	_, ok := s.attrIDs[a]
	return ok
}

// ---- interned fast paths ----
//
// The matcher compiles a pattern against one host; when that host is a
// Snapshot it resolves pattern labels to dense symbols once per Compile
// and then uses the *ID accessors below, keeping string hashing out of
// the innermost search loop entirely.

// LabelID returns the dense symbol of l and whether l occurs anywhere
// in the snapshot (as a node or an edge label).
func (s *Snapshot) LabelID(l Label) (int32, bool) {
	id, ok := s.labelIDs[l]
	return id, ok
}

// NodeLabelID returns the label symbol of node id.
func (s *Snapshot) NodeLabelID(id NodeID) int32 { return *s.nodeLabel.at(id) }

// AttrID returns the dense symbol of attribute a and whether any node
// carries it. Attr symbols, like label symbols, are append-only within
// a snapshot lineage, so compiled plans keep them for the whole lineage.
func (s *Snapshot) AttrID(a Attr) (int32, bool) {
	id, ok := s.attrIDs[a]
	return id, ok
}

// AttrValueID is Attr for a resolved attribute symbol: one binary
// search over the node's interned tuple, no hashing.
func (s *Snapshot) AttrValueID(id NodeID, aid int32) (Value, bool) {
	seg := s.attrSeg(id)
	lo, hi := 0, len(seg.key)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case seg.key[mid] < aid:
			lo = mid + 1
		case seg.key[mid] > aid:
			hi = mid
		default:
			return seg.val[mid], true
		}
	}
	return Value{}, false
}

// CandidateNodesID is CandidateNodes for a resolved node-label symbol.
func (s *Snapshot) CandidateNodesID(lid int32) []NodeID {
	if int(lid) >= len(s.labelNodes) {
		return nil
	}
	p := s.labelNodes[lid]
	return p[:len(p):len(p)] // the spare capacity belongs to successors
}

// OutNeighborsID is OutNeighbors for a resolved concrete edge-label
// symbol: one label-run lookup, no hashing, no allocation.
func (s *Snapshot) OutNeighborsID(src NodeID, lid int32) []NodeID {
	seg := s.outSeg(src)
	lo, hi := labelRun(seg.lbl, lid)
	return seg.ids[lo:hi]
}

// InNeighborsID is InNeighbors for a resolved concrete edge-label symbol.
func (s *Snapshot) InNeighborsID(dst NodeID, lid int32) []NodeID {
	seg := s.inSeg(dst)
	lo, hi := labelRun(seg.lbl, lid)
	return seg.ids[lo:hi]
}

// HasEdgeID is HasEdge for a resolved edge-label symbol.
func (s *Snapshot) HasEdgeID(src NodeID, lid int32, dst NodeID) bool {
	seg := s.outSeg(src)
	lo, hi := labelRun(seg.lbl, lid)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case seg.ids[mid] < dst:
			lo = mid + 1
		case seg.ids[mid] > dst:
			hi = mid
		default:
			return true
		}
	}
	return false
}
