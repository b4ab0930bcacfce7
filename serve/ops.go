package serve

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"

	"gedlib"
)

// Op is one mutation of a write request, in the wire form the HTTP API
// accepts:
//
//	{"op": "add_node", "id": "acme", "label": "company", "attrs": {"name": "ACME"}}
//	{"op": "add_edge", "src": "gibson", "label": "create", "dst": "acme"}
//	{"op": "set_attr", "id": "gibson", "attr": "type", "value": "programmer"}
//
// Node ids are the graph's wire-format string ids (the ones its JSON
// load assigned, plus any added since); attribute values may be JSON
// strings, numbers or booleans, exactly as in the graph wire format.
type Op struct {
	Op    string         `json:"op"`
	ID    string         `json:"id,omitempty"`
	Label string         `json:"label,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
	Src   string         `json:"src,omitempty"`
	Dst   string         `json:"dst,omitempty"`
	Attr  string         `json:"attr,omitempty"`
	Value any            `json:"value,omitempty"`
}

// OpError reports one rejected op of a write request; the remaining
// ops of the request still apply.
type OpError struct {
	Index   int    `json:"op"`
	Message string `json:"error"`
}

// WriteResult is what a completed mutation request reports back.
type WriteResult struct {
	// Version and Epoch identify the published view that first contains
	// the request's ops.
	Version uint64 `json:"version"`
	Epoch   uint64 `json:"epoch"`
	// Applied counts the ops that applied; OpErrors describes the rest.
	Applied  int       `json:"applied"`
	OpErrors []OpError `json:"errors,omitempty"`
	// Err is a flush-level failure (cancellation of the maintained
	// validation), wrapped in ErrFlush; the HTTP layer surfaces it as
	// a 500.
	Err error `json:"-"`
}

// nameIndex is a graph's one two-way mapping between wire-format string
// node ids and NodeIDs, shared by every view of the entry. It only
// grows: a flush whose new nodes the session has applied stores their
// names and appends
// them to the dense column in place, so no flush copies the table, and
// each view bounds what it sees by the column's length when it was
// published (see nameTable). Writers hold the entry lock. Readers take
// no lock: the names the graph was loaded or recovered with sit in a map
// that is never written again, and later ones in added, a hash table of
// node ids probed by name and compared against the dense column, which
// a view reads only below its bound, where no later write lands.
type nameIndex struct {
	loaded map[string]gedlib.NodeID
	added  atomic.Pointer[nameSlots]
	nAdded int      // names in added; written under the entry lock
	byID   []string // dense, indexed by NodeID; "" for an unnamed node
}

// nameSlots is an open-addressing table of node ids (a slot holds id+1,
// 0 when empty), found by hashing the node's name: 4 bytes a name and
// nothing for the collector to trace, where a sync.Map entry cost
// about a hundred. The writer fills empty slots with atomic stores and,
// when half the slots are full, publishes a table twice the size; a
// reader still probing the old one finds every name it held.
type nameSlots struct {
	seed  maphash.Seed
	slots []atomic.Uint32
}

func newNameSlots(n int) *nameSlots {
	return &nameSlots{seed: maphash.MakeSeed(), slots: make([]atomic.Uint32, n)}
}

// find probes for name, comparing the ids it meets against byID; ids at
// or past len(byID) are names the caller's bound does not reach.
func (t *nameSlots) find(name string, byID []string) (gedlib.NodeID, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(t.seed, name) & mask; ; i = (i + 1) & mask {
		slot := t.slots[i].Load()
		if slot == 0 {
			return 0, false
		}
		if id := int(slot - 1); id < len(byID) && byID[id] == name {
			return gedlib.NodeID(id), true
		}
	}
}

// insert stores id under name, which must not be in the table yet.
func (t *nameSlots) insert(name string, id gedlib.NodeID) {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(t.seed, name) & mask
	for t.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].Store(uint32(id) + 1)
}

// newNameIndex builds an index over a graph load's name map, which it
// takes over.
func newNameIndex(byName map[string]gedlib.NodeID) *nameIndex {
	ix := &nameIndex{loaded: byName, byID: make([]string, 0, len(byName))}
	ix.added.Store(newNameSlots(64))
	for name, id := range byName {
		ix.setID(name, id)
	}
	return ix
}

// nameIndexFromDense rebuilds an index from a persisted dense column.
func nameIndexFromDense(names []string) *nameIndex {
	ix := &nameIndex{
		loaded: make(map[string]gedlib.NodeID, len(names)),
		byID:   append([]string(nil), names...),
	}
	ix.added.Store(newNameSlots(64))
	for i, n := range names {
		if n != "" {
			ix.loaded[n] = gedlib.NodeID(i)
		}
	}
	return ix
}

// add names node id. Callers hold the entry lock.
func (ix *nameIndex) add(name string, id gedlib.NodeID) {
	ix.setID(name, id)
	t := ix.added.Load()
	if 2*(ix.nAdded+1) > len(t.slots) {
		grown := newNameSlots(2 * len(t.slots))
		for i := range t.slots {
			if slot := t.slots[i].Load(); slot != 0 {
				grown.insert(ix.byID[slot-1], gedlib.NodeID(slot-1))
			}
		}
		ix.added.Store(grown)
		t = grown
	}
	t.insert(name, id)
	ix.nAdded++
}

// setID writes the dense column's entry for id.
func (ix *nameIndex) setID(name string, id gedlib.NodeID) {
	for int(id) >= len(ix.byID) {
		ix.byID = append(ix.byID, "")
	}
	ix.byID[id] = name
}

// resolveIn maps a wire id to a NodeID among the nodes byID covers.
func (ix *nameIndex) resolveIn(name string, byID []string) (gedlib.NodeID, bool) {
	if id, ok := ix.loaded[name]; ok {
		return id, int(id) < len(byID)
	}
	return ix.added.Load().find(name, byID)
}

// dense returns the dense id→name column of the first n nodes (what a
// checkpoint stores), capacity-clamped so the caller cannot write past
// it into the index.
func (ix *nameIndex) dense(n int) []string {
	n = min(n, len(ix.byID))
	return ix.byID[:n:n]
}

// table returns the index bounded to the first n nodes: what a view of
// a snapshot holding n nodes publishes.
func (ix *nameIndex) table(n int) *nameTable {
	return &nameTable{idx: ix, byID: ix.dense(n)}
}

// nameTable is the wire-id mapping of one view: the entry's shared
// index, bounded to the nodes the view's snapshot holds. It never
// changes, so readers resolve and render ids against it without
// locking, whatever flushes land meanwhile.
type nameTable struct {
	idx  *nameIndex
	byID []string // idx.byID as of publication
}

// Resolve maps a wire id to a NodeID, answering only for nodes named
// by the time the view was published.
func (t *nameTable) Resolve(name string) (gedlib.NodeID, bool) {
	return t.idx.resolveIn(name, t.byID)
}

// batchDelta resolves a flush's ops against the session's snapshot,
// the name index and its own additions into the one delta the flush
// logs, then applies. wire holds the wire ids of d.Nodes, added their
// NodeIDs, and edges the edges d adds (an edge the snapshot or d has
// already is no change).
type batchDelta struct {
	snap  *gedlib.Snapshot
	names *nameIndex
	d     gedlib.Delta
	wire  []string
	added map[string]gedlib.NodeID
	edges map[gedlib.GraphEdge]struct{}
}

// resolve maps a wire id to a NodeID, the batch's new nodes included.
func (b *batchDelta) resolve(name string) (gedlib.NodeID, bool) {
	if id, ok := b.added[name]; ok {
		return id, true
	}
	return b.names.resolveIn(name, b.names.byID)
}

// add resolves one op into the delta, or rejects it.
func (b *batchDelta) add(op Op) error {
	switch op.Op {
	case "add_node":
		if op.ID == "" {
			return fmt.Errorf("add_node: missing id")
		}
		if _, dup := b.resolve(op.ID); dup {
			return fmt.Errorf("add_node: id %q already exists", op.ID)
		}
		if op.Label == "" {
			return fmt.Errorf("add_node: missing label")
		}
		id := gedlib.NodeID(b.snap.NumNodes() + len(b.d.Nodes))
		var buf [8]string // the attribute names, sorted, on the stack
		keys := buf[:0]
		for a := range op.Attrs {
			keys = append(keys, a)
		}
		slices.Sort(keys)
		mark := len(b.d.Attrs)
		for _, a := range keys {
			v, err := jsonValue(op.Attrs[a])
			if err != nil {
				b.d.Attrs = b.d.Attrs[:mark]
				return fmt.Errorf("add_node: attr %q: %w", a, err)
			}
			b.d.Attrs = append(b.d.Attrs, gedlib.AttrWrite{Node: id, Attr: gedlib.Attr(a), Value: v})
		}
		b.d.Nodes = append(b.d.Nodes, gedlib.NodeAdd{ID: id, Label: gedlib.Label(op.Label)})
		b.wire = append(b.wire, op.ID)
		b.added[op.ID] = id
		return nil
	case "add_edge":
		src, ok := b.resolve(op.Src)
		if !ok {
			return fmt.Errorf("add_edge: unknown src %q", op.Src)
		}
		dst, ok := b.resolve(op.Dst)
		if !ok {
			return fmt.Errorf("add_edge: unknown dst %q", op.Dst)
		}
		if op.Label == "" {
			return fmt.Errorf("add_edge: missing label")
		}
		e := gedlib.GraphEdge{Src: src, Label: gedlib.Label(op.Label), Dst: dst}
		n := gedlib.NodeID(b.snap.NumNodes())
		if _, dup := b.edges[e]; dup || src < n && dst < n && b.snap.HasEdge(src, e.Label, dst) {
			return nil
		}
		b.edges[e] = struct{}{}
		b.d.Edges = append(b.d.Edges, e)
		return nil
	case "set_attr":
		id, ok := b.resolve(op.ID)
		if !ok {
			return fmt.Errorf("set_attr: unknown id %q", op.ID)
		}
		if op.Attr == "" {
			return fmt.Errorf("set_attr: missing attr")
		}
		v, err := jsonValue(op.Value)
		if err != nil {
			return fmt.Errorf("set_attr: %w", err)
		}
		b.d.Attrs = append(b.d.Attrs, gedlib.AttrWrite{Node: id, Attr: gedlib.Attr(op.Attr), Value: v})
		return nil
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

// jsonValue converts a decoded JSON value to a graph attribute value,
// with the same convention as the graph wire format (booleans become
// 0/1 numbers).
func jsonValue(raw any) (gedlib.Value, error) {
	switch x := raw.(type) {
	case string:
		return gedlib.String(x), nil
	case float64:
		return gedlib.Number(x), nil
	case bool:
		return gedlib.Bool(x), nil
	case json.Number:
		f, err := x.Float64()
		if err != nil {
			return gedlib.Value{}, err
		}
		return gedlib.Number(f), nil
	case nil:
		return gedlib.Value{}, fmt.Errorf("missing value")
	default:
		return gedlib.Value{}, fmt.Errorf("unsupported value type %T", raw)
	}
}
