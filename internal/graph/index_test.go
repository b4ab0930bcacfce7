package graph

// attrColumn is what attrFilter scans: a Graph or a Snapshot.
type attrColumn interface {
	Nodes() []NodeID
	Attr(id NodeID, a Attr) (Value, bool)
}

// attrFilter is the brute-force attribute-value index, the oracle of
// the snapshot's value postings: the nodes of h whose attribute a
// equals v, ascending, by one scan of the attribute column.
func attrFilter(h attrColumn, a Attr, v Value) []NodeID {
	var out []NodeID
	for _, id := range h.Nodes() {
		if w, ok := h.Attr(id, a); ok && w == v {
			out = append(out, id)
		}
	}
	return out
}
