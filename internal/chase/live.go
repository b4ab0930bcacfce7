package chase

import (
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// host is what a chase round matches Σ on: the coercion G_Eq of
// Section 4.1 without its attributes. Chase steps change eq, never the
// host, so a host serves every round until one of them identifies
// nodes; label refinements and attribute binds live in eq, which the
// chase evaluates literals against directly.
//
// The first host is the frozen base graph itself: under Eq0 every node
// class is a singleton, so G_Eq0 ≅ G, host node = base node and repOf is
// the identity. After a round that merged node classes the next round's
// host is the quotient of that same base snapshot by eq's node classes —
// one node per class under the class's resolved label, every edge
// transported, parallel copies folded (graph.Snapshot.Quotient). That
// is O(|G|) per merge round and the one path for every graph size:
// patching the previous host for the merged classes only was measured
// and lost, because the re-sweep that follows is Ω(|G|) regardless.
type host struct {
	snap *graph.Snapshot
	// repOf maps each host node to its class representative in the base
	// graph, as of when the host was built.
	repOf []graph.NodeID
	// unions is eq.nodeUnions when the host was built: an equal count
	// means snap still is the quotient by eq's node classes.
	unions int
	plans  []*pattern.Plan // compiled against snap, by component.slot
}

// hostOf returns the host for eq's node classes as they stand, without
// plans: the base snapshot while every class is a singleton, otherwise
// its quotient by the classes, numbered as Coerce numbers them.
func hostOf(eq *Eq) host {
	if eq.nodeUnions == 0 {
		return host{snap: eq.base, repOf: eq.base.Nodes()}
	}
	classOf, repOf := eq.classes()
	labels := make([]graph.Label, len(repOf))
	for cn, r := range repOf {
		labels[cn] = eq.nodeLabel[r]
	}
	return host{snap: eq.base.Quotient(classOf, labels), repOf: repOf, unions: eq.nodeUnions}
}

// requotient rebuilds the host for eq's current node classes.
func (c *chaser) requotient() {
	plans := c.host.plans
	clear(plans)
	c.host = hostOf(c.eq)
	c.host.plans = plans
	c.quotientCtr.Inc()
}

// plan returns the compiled match plan of one connected component of a
// GED's pattern on the current host.
//
// Chase plans pick up the matcher's intersection-based extension step
// (multi-way sorted-run intersection over the host's CSR runs) but push
// NO constant literals down: the chase evaluates literals against the
// equivalence relation Eq — where attribute values are *bound by chase
// steps* — and the host stores no attributes at all (the base snapshot
// does, but only Eq0's, which steps outgrow), so there are no value
// postings that describe what X-literal satisfaction means here.
// Enforce's compiled-literal check is the single source of truth for
// that. The same reasoning keeps the sweep's join keys out of the
// matcher: X's equality literals between two components are joined on
// Eq's node and value classes (fullSweep), which merge as the chase
// steps, not on stored values, which never do.
func (h *host) plan(comp *component) *pattern.Plan {
	if h.plans[comp.slot] == nil {
		h.plans[comp.slot] = pattern.Compile(comp.pat, h.snap)
	}
	return h.plans[comp.slot]
}
