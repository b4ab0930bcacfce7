// Package gedio provides the surface syntax of the library: JSON
// serialization for property graphs, and a small Cypher-flavoured text
// DSL for dependencies (GEDs, GDCs and GED∨s) used by the command-line
// tools and examples.
package gedio

import (
	"encoding/json"
	"fmt"
	"sort"

	"gedlib/internal/graph"
)

// jsonGraph is the wire format of a property graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID    string                     `json:"id"`
	Label string                     `json:"label"`
	Attrs map[string]json.RawMessage `json:"attrs,omitempty"`
}

type jsonEdge struct {
	Src   string `json:"src"`
	Label string `json:"label"`
	Dst   string `json:"dst"`
}

// MarshalGraph renders g as JSON. Node ids are written as "n<i>" in
// insertion order, so marshalling is deterministic.
func MarshalGraph(g *graph.Graph) ([]byte, error) {
	var jg jsonGraph
	for _, id := range g.Nodes() {
		n := jsonNode{ID: fmt.Sprintf("n%d", id), Label: string(g.Label(id))}
		if k := g.NumAttrs(id); k > 0 {
			n.Attrs = make(map[string]json.RawMessage, k)
			for a, v := range g.Attrs(id) {
				raw, err := marshalValue(v)
				if err != nil {
					return nil, err
				}
				n.Attrs[string(a)] = raw
			}
		}
		jg.Nodes = append(jg.Nodes, n)
	}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{
			Src: fmt.Sprintf("n%d", e.Src), Label: string(e.Label), Dst: fmt.Sprintf("n%d", e.Dst),
		})
	}
	return json.MarshalIndent(jg, "", "  ")
}

func marshalValue(v graph.Value) (json.RawMessage, error) {
	if v.IsNumber() {
		return json.Marshal(v.Num())
	}
	return json.Marshal(v.Str())
}

// UnmarshalGraph parses the JSON wire format. Node ids may be arbitrary
// strings; edges refer to them. Attribute values may be JSON strings,
// numbers or booleans (booleans become 0/1 numbers, matching the
// paper's examples).
func UnmarshalGraph(data []byte) (*graph.Graph, map[string]graph.NodeID, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, nil, fmt.Errorf("gedio: %w", err)
	}
	g := graph.New()
	ids := make(map[string]graph.NodeID, len(jg.Nodes))
	for _, n := range jg.Nodes {
		if _, dup := ids[n.ID]; dup {
			return nil, nil, fmt.Errorf("gedio: duplicate node id %q", n.ID)
		}
		id := g.AddNode(graph.Label(n.Label))
		ids[n.ID] = id
		names := make([]string, 0, len(n.Attrs))
		for a := range n.Attrs {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			v, err := unmarshalValue(n.Attrs[a])
			if err != nil {
				return nil, nil, fmt.Errorf("gedio: node %q attr %q: %w", n.ID, a, err)
			}
			g.SetAttr(id, graph.Attr(a), v)
		}
	}
	for i, e := range jg.Edges {
		src, ok := ids[e.Src]
		if !ok {
			return nil, nil, fmt.Errorf("gedio: edge %d: unknown source %q", i, e.Src)
		}
		dst, ok := ids[e.Dst]
		if !ok {
			return nil, nil, fmt.Errorf("gedio: edge %d: unknown target %q", i, e.Dst)
		}
		g.AddEdge(src, graph.Label(e.Label), dst)
	}
	return g, ids, nil
}

func unmarshalValue(raw json.RawMessage) (graph.Value, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return graph.String(s), nil
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err == nil {
		return graph.Number(f), nil
	}
	var b bool
	if err := json.Unmarshal(raw, &b); err == nil {
		return graph.Bool(b), nil
	}
	return graph.Value{}, fmt.Errorf("unsupported value %s", raw)
}
