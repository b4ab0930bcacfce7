package chase

import (
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// liveCoercion maintains the coercion graph G_Eq across chase rounds
// without rebuilding it. The structural changes between two rounds are
// exactly the node identifications the previous round performed — label
// refinements and attribute binds live in eq, which the chase evaluates
// literals against directly — so the maintenance is:
//
//   - each identified pair of classes elects a carrier (the coercion
//     node whose label equals the merged class's resolved label) and
//     the retired carrier's adjacency is transported onto it, with
//     class-internal edges folded into self-loops;
//   - the frozen snapshot is advanced by the working graph's own
//     mutation journal (Graph.DeltaSince + Snapshot.Apply), so the
//     matcher's host is refreshed in O(|merged adjacency|), not O(|G|);
//   - compiled match plans are rebound to the advanced snapshot.
//
// Retired carriers stay in the graph: their labels and edges are
// subsumed by their carriers (a retired node's label is its class label
// or a wildcard the class has since refined, and every one of its edges
// also connects the corresponding carriers), so matches binding them
// are duplicates of carrier-only matches and the round loop skips them
// via isCarrier. When too many nodes have retired, rebuild() re-coerces
// from scratch — the same valve a log-structured store compacts with.
type liveCoercion struct {
	eq   *Eq
	co   *Coercion
	snap *graph.Snapshot
	// size is eq.Size() when co was built: every extension of Eq ticks
	// it, so an unchanged size means co still is Coerce(eq).
	size int
	// parent is a union-find over coercion nodes; a root is a carrier.
	parent []graph.NodeID
	stale  int
	plans  []*pattern.Plan // by component.slot
}

// deltaChaseMinNodes is the coercion-graph size below which a full
// rebuild is cheaper than carrying retired carriers in the matching
// space: rebuilding a few thousand nodes costs microseconds, while
// every stale node both widens candidate postings and pays the carrier
// filter on the matcher's innermost loop.
const deltaChaseMinNodes = 4096

// newLiveCoercion coerces eq for a chase matching nPlans pattern
// components.
func newLiveCoercion(eq *Eq, nPlans int) *liveCoercion {
	lc := &liveCoercion{eq: eq, plans: make([]*pattern.Plan, nPlans)}
	lc.rebuild()
	return lc
}

// rebuild re-coerces from scratch: the once-per-chase initialization,
// and the compaction valve when retirements pile up.
func (lc *liveCoercion) rebuild() {
	lc.co = Coerce(lc.eq)
	lc.size = lc.eq.Size()
	lc.snap = lc.co.Graph.Freeze()
	lc.parent = make([]graph.NodeID, lc.co.Graph.NumNodes())
	for i := range lc.parent {
		lc.parent[i] = graph.NodeID(i)
	}
	lc.stale = 0
	clear(lc.plans)
}

// current returns the coercion of eq as it stands: the live one while
// it is exact — no retired carriers, no extension of Eq since it was
// built — and a fresh one otherwise.
func (lc *liveCoercion) current() *Coercion {
	if lc.stale == 0 && lc.eq.Size() == lc.size {
		return lc.co
	}
	return Coerce(lc.eq)
}

// find returns the carrier of coercion node c, with path halving.
func (lc *liveCoercion) find(c graph.NodeID) graph.NodeID {
	for lc.parent[c] != c {
		lc.parent[c] = lc.parent[lc.parent[c]]
		c = lc.parent[c]
	}
	return c
}

// isCarrier reports whether coercion node c still carries its class.
func (lc *liveCoercion) isCarrier(c graph.NodeID) bool { return lc.parent[c] == c }

// plan returns the compiled (and delta-rebound) match plan of one
// connected component of a GED's pattern.
//
// Chase plans pick up the matcher's intersection-based extension step
// (multi-way sorted-run intersection over the coercion snapshot's CSR
// runs) but deliberately push NO constant literals down: the chase
// evaluates literals against the equivalence relation Eq — where
// attribute values are *bound by chase steps*, not stored on the
// coercion graph, whose nodes start attribute-free — so the snapshot's
// value postings do not describe what X-literal satisfaction means
// here. Enforce's compiled-literal check is the single source of truth
// for that. The same reasoning keeps the sweep's join keys out of the
// matcher: X's equality literals between two components are joined on
// Eq's node and value classes (fullSweep), which merge as the chase
// steps, not on the snapshot's stored values, which never do.
func (lc *liveCoercion) plan(comp *component) *pattern.Plan {
	if lc.plans[comp.slot] == nil {
		lc.plans[comp.slot] = pattern.Compile(comp.pat, lc.snap)
	}
	return lc.plans[comp.slot]
}

// advance folds one round's node identifications into the coercion
// graph and catches the snapshot up by the resulting delta (the round
// that follows re-sweeps the patched snapshot). With no merges it is a
// no-op: const- and var-literal rounds reuse the snapshot as is, for
// free.
func (lc *liveCoercion) advance(merges [][2]graph.NodeID) {
	if len(merges) == 0 {
		return
	}
	// Rebuild eagerly outside the sparse-merge regime: a re-coercion
	// not only compacts the retired carriers away, it *shrinks* the
	// matching space to the quotient, which outweighs the O(|G|)
	// rebuild cost unless the graph dwarfs both the merge count and the
	// rebuild itself. The true delta path is reserved for large graphs
	// where a handful of classes collapse — the streaming regime the
	// snapshot maintenance exists for.
	n := lc.co.Graph.NumNodes()
	if n < deltaChaseMinNodes || (lc.stale+len(merges))*8 > n {
		lc.rebuild()
		return
	}
	for _, p := range merges {
		lc.merge(p[0], p[1])
	}
	d := lc.co.Graph.DeltaSince(lc.snap.SourceVersion())
	if d == nil {
		// The working graph trimmed its journal past the snapshot —
		// only possible after extreme merge-transport churn; compact.
		lc.rebuild()
		return
	}
	if d.Empty() {
		return
	}
	lc.snap = lc.snap.Apply(d)
	for i, pl := range lc.plans {
		if pl != nil {
			lc.plans[i] = pl.Rebind(lc.snap)
		}
	}
}

// merge retires one of the two classes' carriers in favor of the one
// whose label matches the merged class's resolved label, transporting
// the retired carrier's adjacency onto it. u and v are base-graph
// nodes, already identified in eq.
func (lc *liveCoercion) merge(u, v graph.NodeID) {
	cu := lc.find(lc.co.NodeOf[u])
	cv := lc.find(lc.co.NodeOf[v])
	if cu == cv {
		return
	}
	co := lc.co.Graph
	resolved := lc.eq.ClassLabel(u)
	winner, loser := cu, cv
	if co.Label(winner) != resolved {
		winner, loser = cv, cu
	}
	// Both carriers can only disagree with the resolved label while the
	// round's remaining merges still fold the concrete-labeled class in
	// (label refinement comes from merging alone); the final merge of
	// the batch then elects the properly-labeled carrier, so an interim
	// wildcard winner is fine. See the invariant note on liveCoercion.
	for _, e := range co.Out(loser) {
		dst := e.Dst
		if dst == loser {
			dst = winner
		}
		co.AddEdge(winner, e.Label, dst)
	}
	for _, e := range co.In(loser) {
		src := e.Src
		if src == loser {
			src = winner
		}
		co.AddEdge(src, e.Label, winner)
	}
	lc.parent[loser] = winner
	lc.stale++
	// Keep the carrier's base representative current, so recorded chase
	// steps name the same class representatives a fresh per-round
	// coercion would.
	lc.co.RepOf[winner] = lc.eq.NodeRoot(lc.co.RepOf[winner])
}
