package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
)

// pagedPatch mutates a paged per-node table copy-on-write: the outer
// page table and each touched page are cloned at most once, everything
// else stays shared with the parent snapshot's table, base. A page is
// the patch's own exactly when it is not base's: cloned, or past it.
type pagedPatch[T any] struct {
	pgs, base pages[T]
	ownOuter  bool
}

func newPagedPatch[T any](pgs pages[T]) *pagedPatch[T] {
	return &pagedPatch[T]{pgs: pgs, base: pgs}
}

func (pp *pagedPatch[T]) cloneOuter(extraPages int) {
	if pp.ownOuter {
		return
	}
	out := make(pages[T], len(pp.pgs), len(pp.pgs)+extraPages)
	copy(out, pp.pgs)
	pp.pgs = out
	pp.ownOuter = true
}

// at reads the current value of entry id.
func (pp *pagedPatch[T]) at(id NodeID) T { return *pp.pgs.at(id) }

// set overwrites entry id, cloning its page on first touch.
func (pp *pagedPatch[T]) set(id NodeID, v T) {
	p := int(id) >> pageShift
	if p < len(pp.base) && pp.pgs[p] == pp.base[p] {
		pp.cloneOuter(0)
		pg := *pp.pgs[p]
		pp.pgs[p] = &pg
	}
	pp.pgs[p][id&pageMask] = v
}

// grow extends the table to n entries with zeroed pages of its own. The
// entries past the parent's node count on its last page are zero
// already (see pages), so they need no write until set gives them a
// value.
func (pp *pagedPatch[T]) grow(n int) {
	np := (n + pageMask) >> pageShift
	if np <= len(pp.pgs) {
		return
	}
	pp.cloneOuter(np - len(pp.pgs))
	for len(pp.pgs) < np {
		pp.pgs = append(pp.pgs, new([pageSize]T))
	}
}

// epatch is one direction of one added edge, with the label resolved.
type epatch struct {
	node  NodeID // the segment owner (src for out, dst for in)
	lid   int32
	other NodeID
}

// Apply produces the snapshot of the graph after delta d, in time
// proportional to |Δ| plus the adjacency and attribute tuples of the
// touched nodes — not the graph. The result shares every untouched
// page, label posting and symbol table with s; both snapshots remain
// fully usable and immutable. The value postings s declared (see
// LookupAttrID) are carried forward and updated eagerly: added nodes
// are appended at a posting's end, in place when the child claims its
// tail, and a node an overwrite moves into or out of a declared pair
// costs one copy of that posting per Apply. A delta that writes no
// declared pair leaves the set shared with s, and a compiled plan's
// enumeration on the result fetches each pushed-down posting with one
// map read.
//
// d.FromVersion must equal s.SourceVersion(): deltas compose in
// sequence, exactly as Graph.DeltaSince hands them out. Apply panics on
// a version mismatch, on non-contiguous node ids, and on edges or
// attribute writes naming nodes the result would not have — all
// programmer errors in delta construction, never data errors. It panics
// on a nil d too: DeltaSince's answer once the journal no longer
// reaches back to s, where the caller has to re-freeze the graph.
//
// Applying an empty delta returns s itself. The result is
// indistinguishable from Graph.Freeze() on the post-delta graph (the
// differential tests assert exactly that), so callers may mix the two
// freely.
func (s *Snapshot) Apply(d *Delta) *Snapshot {
	if d == nil {
		panic(fmt.Sprintf("graph: Apply of a nil delta onto snapshot at version %d: the journal no longer reaches it; re-freeze", s.version))
	}
	if d.FromVersion != s.version {
		panic(fmt.Sprintf("graph: Apply of delta from version %d onto snapshot at version %d",
			d.FromVersion, s.version))
	}
	if d.Empty() && d.ToVersion == s.version {
		return s
	}
	oldN := s.numNodes
	n := oldN + len(d.Nodes)
	ns := &Snapshot{
		labels:        s.labels,
		labelIDs:      s.labelIDs,
		attrs:         s.attrs,
		attrIDs:       s.attrIDs,
		numNodes:      n,
		ids:           identityIDs(n),
		nodeLabel:     s.nodeLabel,
		out:           s.out,
		in:            s.in,
		attr:          s.attr,
		labelNodes:    s.labelNodes,
		labelDegTotal: s.labelDegTotal,
		labelTail:     s.labelTail,
		numEdges:      s.numEdges,
		version:       d.ToVersion,
		lineage:       s.lineage,
	}

	// Symbol tables: cloned at most once, on the first genuinely new
	// symbol. Ids are append-only, so child symbols extend the parent's
	// and compiled plans stay rebindable across the lineage.
	ownLabels, ownAttrs := false, false
	internLabel := func(l Label) int32 {
		if id, ok := ns.labelIDs[l]; ok {
			return id
		}
		if !ownLabels {
			m := make(map[Label]int32, len(ns.labelIDs)+1)
			for k, v := range ns.labelIDs {
				m[k] = v
			}
			ns.labelIDs = m
			ns.labels = append(make([]Label, 0, len(ns.labels)+1), ns.labels...)
			ownLabels = true
		}
		id := int32(len(ns.labels))
		ns.labels = append(ns.labels, l)
		ns.labelIDs[l] = id
		return id
	}
	internAttr := func(a Attr) int32 {
		if id, ok := ns.attrIDs[a]; ok {
			return id
		}
		if !ownAttrs {
			m := make(map[Attr]int32, len(ns.attrIDs)+1)
			for k, v := range ns.attrIDs {
				m[k] = v
			}
			ns.attrIDs = m
			ns.attrs = append(make([]Attr, 0, len(ns.attrs)+1), ns.attrs...)
			ownAttrs = true
		}
		id := int32(len(ns.attrs))
		ns.attrs = append(ns.attrs, a)
		ns.attrIDs[a] = id
		return id
	}

	// Label postings and degree totals: outer slices cloned on first
	// touch; a posting gaining nodes grows at its end, in place when
	// this snapshot claims its tail (see growPosting).
	ownPostings := false
	ensureLabelTables := func(minLen int) {
		if !ownPostings {
			ns.labelNodes = append(make([][]NodeID, 0, max(minLen, len(ns.labelNodes))), ns.labelNodes...)
			ns.labelDegTotal = append(make([]int64, 0, max(minLen, len(ns.labelDegTotal))), ns.labelDegTotal...)
			ns.labelTail = append(make([]*atomic.Int64, 0, max(minLen, len(ns.labelNodes))), ns.labelTail...)
			ownPostings = true
		}
		for len(ns.labelNodes) < minLen {
			ns.labelNodes = append(ns.labelNodes, nil)
			ns.labelDegTotal = append(ns.labelDegTotal, 0)
		}
		for len(ns.labelTail) < len(ns.labelNodes) {
			ns.labelTail = append(ns.labelTail, nil)
		}
	}

	nodeLabelPP := newPagedPatch(ns.nodeLabel)
	outPP := newPagedPatch(ns.out)
	inPP := newPagedPatch(ns.in)
	attrPP := newPagedPatch(ns.attr)

	// --- added nodes ---
	if len(d.Nodes) > 0 {
		newLids := make([]int32, len(d.Nodes))
		maxLid := int32(-1)
		for i, na := range d.Nodes {
			if na.ID != NodeID(oldN+i) {
				panic(fmt.Sprintf("graph: delta node id %d not contiguous with snapshot of %d nodes", na.ID, oldN))
			}
			newLids[i] = internLabel(na.Label)
			if newLids[i] > maxLid {
				maxLid = newLids[i]
			}
		}
		nodeLabelPP.grow(n)
		for i, lid := range newLids {
			nodeLabelPP.set(NodeID(oldN+i), lid)
		}
		outPP.grow(n)
		inPP.grow(n)
		attrPP.grow(n)
		ensureLabelTables(int(maxLid) + 1)
		added := make([]int, maxLid+1)
		for _, lid := range newLids {
			added[lid]++
		}
		for lid, k := range added {
			if k > 0 {
				ns.labelNodes[lid], ns.labelTail[lid] = growPosting(ns.labelNodes[lid], ns.labelTail[lid], k)
			}
		}
		for i, lid := range newLids {
			ns.labelNodes[lid] = append(ns.labelNodes[lid], NodeID(oldN+i))
		}
	}
	labelOf := func(id NodeID) int32 { return nodeLabelPP.at(id) }

	// --- added edges ---
	if len(d.Edges) > 0 {
		outAdd := make([]epatch, 0, len(d.Edges))
		inAdd := make([]epatch, 0, len(d.Edges))
		for _, e := range d.Edges {
			if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
				panic(fmt.Sprintf("graph: delta edge (%d,%s,%d) names a node outside [0,%d)", e.Src, e.Label, e.Dst, n))
			}
			lid := internLabel(e.Label)
			outAdd = append(outAdd, epatch{node: e.Src, lid: lid, other: e.Dst})
			inAdd = append(inAdd, epatch{node: e.Dst, lid: lid, other: e.Src})
		}
		sortPatches(outAdd)
		sortPatches(inAdd)
		// The out pass is authoritative for what is genuinely new (the
		// in pass sees the mirror of exactly the same edge set), so it
		// alone maintains the edge count and degree totals.
		ensureLabelTables(0)
		mergePatches(outPP, outAdd, func(p epatch) {
			ns.numEdges++
			ns.labelDegTotal[labelOf(p.node)]++
			ns.labelDegTotal[labelOf(p.other)]++
		})
		mergePatches(inPP, inAdd, nil)
	}

	// Declared value postings: the attribute pass below notes every
	// join and leave of a declared pair as a posting edit.
	decl := s.postings.Load()
	var edits []postingEdit

	// --- attribute writes ---
	if len(d.Attrs) > 0 {
		writes := make([]AttrWrite, len(d.Attrs))
		copy(writes, d.Attrs)
		// Stable by node: application order within a node is preserved,
		// so a later write to the same attribute wins, as in SetAttr.
		sort.SliceStable(writes, func(i, j int) bool { return writes[i].Node < writes[j].Node })
		// Every touched node's new tuple is carved out of one key and one
		// value arena, sized for its old tuple plus its writes, so a
		// delta writing k nodes costs two allocations, not 2k.
		room := 0
		for lo := 0; lo < len(writes); {
			hi := lo
			for hi < len(writes) && writes[hi].Node == writes[lo].Node {
				hi++
			}
			if id := writes[lo].Node; id < 0 || int(id) >= n {
				panic(fmt.Sprintf("graph: delta attribute write names node %d outside [0,%d)", id, n))
			}
			room += len(attrPP.at(writes[lo].Node).key) + hi - lo
			lo = hi
		}
		keyArena, valArena := make([]int32, room), make([]Value, room)
		for lo := 0; lo < len(writes); {
			hi := lo
			for hi < len(writes) && writes[hi].Node == writes[lo].Node {
				hi++
			}
			id := writes[lo].Node
			seg := attrPP.at(id)
			c := len(seg.key) + hi - lo
			key := append(keyArena[:0:c], seg.key...)
			val := append(valArena[:0:c], seg.val...)
			keyArena, valArena = keyArena[c:], valArena[c:]
			for _, w := range writes[lo:hi] {
				aid := internAttr(w.Attr)
				pos := sort.Search(len(key), func(k int) bool { return key[k] >= aid })
				if pos < len(key) && key[pos] == aid {
					val[pos] = w.Value
				} else {
					key = append(key, 0)
					copy(key[pos+1:], key[pos:])
					key[pos] = aid
					val = append(val, Value{})
					copy(val[pos+1:], val[pos:])
					val[pos] = w.Value
				}
			}
			if decl != nil {
				edits = decl.edits(edits, id, seg, key, val)
			}
			attrPP.set(id, attrSeg{key: key[:len(key):len(key)], val: val[:len(val):len(val)]})
			lo = hi
		}
	}

	switch {
	case len(edits) > 0:
		ns.postings.Store(decl.apply(edits))
	case decl != nil:
		ns.postings.Store(decl)
	}

	ns.nodeLabel = nodeLabelPP.pgs
	ns.out = outPP.pgs
	ns.in = inPP.pgs
	ns.attr = attrPP.pgs
	return ns
}

// growPosting makes room for k more ids at the end of posting p, whose
// backing array's claimed length is tail: the shared array when the
// caller can claim p's length, else a copy with room to grow. One
// snapshot per length wins the claim; every snapshot reads only up to
// its own length, so the ids the winner appends are invisible to the
// rest, and a posting that only grows costs O(added), not O(posting).
func growPosting(p []NodeID, tail *atomic.Int64, k int) ([]NodeID, *atomic.Int64) {
	if tail != nil && cap(p)-len(p) >= k && tail.CompareAndSwap(int64(len(p)), int64(len(p)+k)) {
		return p, tail
	}
	grown := make([]NodeID, len(p), 2*(len(p)+k))
	copy(grown, p)
	tail = new(atomic.Int64)
	tail.Store(int64(len(p) + k))
	return grown, tail
}

// postingEdit is one declared posting's membership change: id joins (or,
// when leave, leaves) pair key's nodes.
type postingEdit struct {
	key   postingKey
	id    NodeID
	leave bool
}

// edits appends the edits of node id's tuple going from old to (key,
// val), both ascending by attribute symbol: a leave of each declared
// pair the node no longer carries and a join of each it newly does.
// Attributes are never unset, so every key of old is in key.
func (ps *postingSet) edits(buf []postingEdit, id NodeID, old attrSeg, key []int32, val []Value) []postingEdit {
	i := 0
	for k, aid := range key {
		if i < len(old.key) && old.key[i] == aid {
			prev := old.val[i]
			i++
			if prev == val[k] {
				continue
			}
			if pk := (postingKey{aid, prev}); ps.declared(pk) {
				buf = append(buf, postingEdit{key: pk, id: id, leave: true})
			}
		}
		if pk := (postingKey{aid, val[k]}); ps.declared(pk) {
			buf = append(buf, postingEdit{key: pk, id: id})
		}
	}
	return buf
}

func (ps *postingSet) declared(pk postingKey) bool {
	_, ok := ps.get(pk)
	return ok
}

// apply returns the set after edits, collected in ascending node order:
// a copy sharing every posting the edits leave alone. A posting that
// only gains ids past its end grows in place (growPosting); any other
// edited posting is merged into a fresh array once.
func (ps *postingSet) apply(edits []postingEdit) *postingSet {
	slices.SortStableFunc(edits, func(a, b postingEdit) int {
		if a.key.attr != b.key.attr {
			return cmp.Compare(a.key.attr, b.key.attr)
		}
		return a.key.val.Compare(b.key.val)
	})
	next := maps.Clone(*ps)
	for lo := 0; lo < len(edits); {
		hi := lo + 1
		for hi < len(edits) && edits[hi].key == edits[lo].key {
			hi++
		}
		pk := edits[lo].key
		next[pk] = next[pk].apply(edits[lo:hi])
		lo = hi
	}
	return &next
}

// apply returns p after es, its edits in ascending id order.
func (p valuePosting) apply(es []postingEdit) valuePosting {
	appendOnly := len(p.ids) == 0 || es[0].id > p.ids[len(p.ids)-1]
	joins := 0
	for _, e := range es {
		if e.leave {
			appendOnly = false
		} else {
			joins++
		}
	}
	if appendOnly {
		ids, tail := growPosting(p.ids, p.tail, len(es))
		for _, e := range es {
			ids = append(ids, e.id)
		}
		return valuePosting{ids: ids, tail: tail}
	}
	ids := make([]NodeID, 0, len(p.ids)+joins)
	i := 0
	for _, e := range es {
		for i < len(p.ids) && p.ids[i] < e.id {
			ids = append(ids, p.ids[i])
			i++
		}
		if e.leave {
			i++ // p.ids[i] == e.id: a leaving node carried the pair
		} else {
			ids = append(ids, e.id)
		}
	}
	ids = append(ids, p.ids[i:]...)
	tail := new(atomic.Int64)
	tail.Store(int64(len(ids)))
	return valuePosting{ids: ids, tail: tail}
}

// sortPatches orders edge patches by (owner, label, endpoint) and drops
// exact duplicates within the delta.
func sortPatches(ps []epatch) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.lid != b.lid {
			return a.lid < b.lid
		}
		return a.other < b.other
	})
}

// mergePatches folds sorted edge patches into the per-node segments of
// one direction, cloning only the touched pages. Entries already in a
// segment (duplicate inserts) are skipped; onNew, when non-nil, fires
// once per genuinely new entry.
func mergePatches(pp *pagedPatch[adjSeg], ps []epatch, onNew func(epatch)) {
	for lo := 0; lo < len(ps); {
		hi := lo
		for hi < len(ps) && ps[hi].node == ps[lo].node {
			hi++
		}
		id := ps[lo].node
		old := pp.at(id)
		fresh := ps[lo:hi:hi]
		// Drop duplicates: within the delta, and against the segment.
		kept := fresh[:0:0]
		for k, p := range fresh {
			if k > 0 && p == fresh[k-1] {
				continue
			}
			if segHas(old, p.lid, p.other) {
				continue
			}
			kept = append(kept, p)
			if onNew != nil {
				onNew(p)
			}
		}
		if len(kept) > 0 {
			pp.set(id, mergeSeg(old, kept))
		}
		lo = hi
	}
}

// segHas reports whether the segment contains the (label, endpoint)
// entry: the same label-run + binary-search walk as HasEdgeID.
func segHas(seg adjSeg, lid int32, other NodeID) bool {
	lo, hi := labelRun(seg.lbl, lid)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case seg.ids[mid] < other:
			lo = mid + 1
		case seg.ids[mid] > other:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// mergeSeg interleaves a sorted segment with sorted, known-absent new
// entries, preserving the (label, endpoint) order invariant.
func mergeSeg(old adjSeg, add []epatch) adjSeg {
	lbl := make([]int32, 0, len(old.lbl)+len(add))
	ids := make([]NodeID, 0, len(old.ids)+len(add))
	i, j := 0, 0
	for i < len(old.lbl) || j < len(add) {
		takeOld := j >= len(add) ||
			(i < len(old.lbl) &&
				(old.lbl[i] < add[j].lid ||
					(old.lbl[i] == add[j].lid && old.ids[i] < add[j].other)))
		if takeOld {
			lbl = append(lbl, old.lbl[i])
			ids = append(ids, old.ids[i])
			i++
		} else {
			lbl = append(lbl, add[j].lid)
			ids = append(ids, add[j].other)
			j++
		}
	}
	return adjSeg{lbl: lbl, ids: ids}
}
