package serve

import (
	"encoding/json"
	"fmt"

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

// nameTable is the immutable two-way mapping between wire-format string
// node ids and NodeIDs. Views publish it alongside the snapshot, so the
// read path resolves and renders ids without locking; flushes that add
// nodes publish a successor table.
type nameTable struct {
	byName map[string]gedlib.NodeID
	byID   []string // dense, indexed by NodeID
}

func newNameTable(byName map[string]gedlib.NodeID) *nameTable {
	t := &nameTable{byName: byName}
	if t.byName == nil {
		t.byName = map[string]gedlib.NodeID{}
	}
	max := -1
	for _, id := range t.byName {
		if int(id) > max {
			max = int(id)
		}
	}
	t.byID = make([]string, max+1)
	for name, id := range t.byName {
		t.byID[id] = name
	}
	return t
}

// Resolve maps a wire id to a NodeID.
func (t *nameTable) Resolve(name string) (gedlib.NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// Len reports how many named nodes the table holds.
func (t *nameTable) Len() int { return len(t.byName) }

// raw returns the wire id of a node, "" when it has none (the WAL and
// checkpoints persist the raw column; unnamed nodes stay unnamed).
func (t *nameTable) raw(id gedlib.NodeID) string {
	if int(id) < len(t.byID) {
		return t.byID[id]
	}
	return ""
}

// dense copies out the dense id→name column (what persist.State holds).
func (t *nameTable) dense() []string {
	return append([]string(nil), t.byID...)
}

// nameTableFromDense rebuilds a table from a persisted dense column.
func nameTableFromDense(names []string) *nameTable {
	t := &nameTable{
		byName: make(map[string]gedlib.NodeID, len(names)),
		byID:   append([]string(nil), names...),
	}
	for i, n := range names {
		if n != "" {
			t.byName[n] = gedlib.NodeID(i)
		}
	}
	return t
}

// nameBuilder lazily clones a nameTable on first added node, so
// attribute-only batches publish the predecessor table unchanged.
type nameBuilder struct {
	cur   *nameTable
	owned bool
}

func (b *nameBuilder) table() *nameTable { return b.cur }

func (b *nameBuilder) add(name string, id gedlib.NodeID) {
	if !b.owned {
		nt := &nameTable{
			byName: make(map[string]gedlib.NodeID, len(b.cur.byName)+1),
			byID:   append([]string(nil), b.cur.byID...),
		}
		for k, v := range b.cur.byName {
			nt.byName[k] = v
		}
		b.cur, b.owned = nt, true
	}
	b.cur.byName[name] = id
	for int(id) >= len(b.cur.byID) {
		b.cur.byID = append(b.cur.byID, "")
	}
	b.cur.byID[id] = name
}

// applyOp applies one op to the mutable graph, updating the name
// builder for added nodes. Called with the entry lock held by the
// flusher.
func applyOp(g *gedlib.Graph, nb *nameBuilder, op Op) error {
	switch op.Op {
	case "add_node":
		if op.ID == "" {
			return fmt.Errorf("add_node: missing id")
		}
		if _, dup := nb.table().Resolve(op.ID); dup {
			return fmt.Errorf("add_node: id %q already exists", op.ID)
		}
		if op.Label == "" {
			return fmt.Errorf("add_node: missing label")
		}
		attrs := make(map[gedlib.Attr]gedlib.Value, len(op.Attrs))
		for a, raw := range op.Attrs {
			v, err := jsonValue(raw)
			if err != nil {
				return fmt.Errorf("add_node: attr %q: %w", a, err)
			}
			attrs[gedlib.Attr(a)] = v
		}
		id := g.AddNodeAttrs(gedlib.Label(op.Label), attrs)
		nb.add(op.ID, id)
		return nil
	case "add_edge":
		src, ok := nb.table().Resolve(op.Src)
		if !ok {
			return fmt.Errorf("add_edge: unknown src %q", op.Src)
		}
		dst, ok := nb.table().Resolve(op.Dst)
		if !ok {
			return fmt.Errorf("add_edge: unknown dst %q", op.Dst)
		}
		if op.Label == "" {
			return fmt.Errorf("add_edge: missing label")
		}
		g.AddEdge(src, gedlib.Label(op.Label), dst)
		return nil
	case "set_attr":
		id, ok := nb.table().Resolve(op.ID)
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
		g.SetAttr(id, gedlib.Attr(op.Attr), v)
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
