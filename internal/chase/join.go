package chase

import (
	"sync"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// This file is the chase's sweep of one GED over the current host.
//
// A chase step fires only for matches h with h ⊨ X under Eq, but a
// disconnected pattern — every GKey is Q ∪ f(Q) by construction — has
// |matches(Q)|² homomorphisms, nearly all of which relate an x to an
// unrelated f(x). The sweep therefore never enumerates the pattern as
// a whole: it enumerates each connected component on its own and
// combines the components by a hash join keyed on X's cross-component
// equality literals, evaluated against Eq (x.A = y.B joins on the
// value class of the slot, x.id = y.id on the node class). Components
// no literal links combine by plain product — the empty-key case of
// the same join — and a connected pattern is the one-component case,
// streaming from the matcher straight into enforce.
//
// The join only proposes: every combined binding goes through enforce,
// which re-checks all of X and Y against the live Eq. A key computed
// before a step of the same pass merged two classes is stale, which
// can only withhold a binding, never admit a wrong one; since Eq only
// grows, a withheld binding is exactly a pending one, and the sweep
// re-keys and re-probes for as long as a pass applied a step. When it
// returns, every binding whose X holds under Eq has been enforced — at
// least what one sequential pass over the cross product achieves, so
// the chase needs no more rounds than it did, and its last round,
// which changes nothing, joins on exact keys.

// component is one connected component of a GED's pattern.
type component struct {
	pat  *pattern.Pattern
	vars []int     // position in pat.Vars() → index in the GED's variable order
	keys []joinKey // X literals linking this component to earlier ones
	slot int       // index of the component's plan in host.plans
}

// joinKey is one cross-component literal of X, oriented along the join
// order: probe is the side an earlier component binds, build the side
// in the component the key indexes.
type joinKey struct {
	id        bool  // x.id = y.id; otherwise x.A = y.B
	probe     int   // variable index in the GED's order
	probeAttr int32 // Eq's attribute id
	build     int   // variable position within the component
	buildAttr int32
}

// split computes r's join plan: the connected components of its
// pattern p (idx maps p's variables to their position in r.vars) and
// the literals of r.x that link them, numbering the components' plans
// from slot.
func (r *rule) split(p *pattern.Pattern, idx map[pattern.Var]int, slot int) {
	vars := r.vars
	root := make([]int, len(vars)) // union–find over variable indexes
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	for _, e := range p.Edges() {
		// Rooting each class at its smallest index numbers components
		// by first variable without a second pass.
		a, b := find(idx[e.Src]), find(idx[e.Dst])
		root[max(a, b)] = min(a, b)
	}

	compOf := make([]int, len(vars)) // variable index → component
	posOf := make([]int, len(vars))  // variable index → position in its component
	for i := range vars {
		if rt := find(i); rt == i {
			compOf[i] = len(r.comps)
			r.comps = append(r.comps, component{slot: slot + len(r.comps)})
		} else {
			compOf[i] = compOf[rt]
		}
		c := &r.comps[compOf[i]]
		posOf[i] = len(c.vars)
		c.vars = append(c.vars, i)
	}
	if len(r.comps) == 0 {
		// The empty pattern has one (empty) match: one empty component.
		r.comps = []component{{slot: slot}}
	}
	if len(r.comps) == 1 {
		r.comps[0].pat = p // connected: the pattern is its own component
		return
	}
	for ci := range r.comps {
		c := &r.comps[ci]
		c.pat = pattern.New()
		for _, i := range c.vars {
			c.pat.AddVar(vars[i], p.Label(vars[i]))
		}
	}
	for _, e := range p.Edges() {
		r.comps[compOf[idx[e.Src]]].pat.AddEdge(e.Src, e.Label, e.Dst)
	}
	for i := range r.x {
		cl := &r.x[i]
		if cl.kind == ConstKind || compOf[cl.li] == compOf[cl.ri] {
			continue // decided within one component: enforce's business
		}
		k := joinKey{id: cl.kind == IDKind, probe: cl.li, probeAttr: cl.la, build: cl.ri, buildAttr: cl.ra}
		if compOf[cl.li] > compOf[cl.ri] {
			k.probe, k.probeAttr, k.build, k.buildAttr = cl.ri, cl.ra, cl.li, cl.la
		}
		c := &r.comps[compOf[k.build]]
		k.build = posOf[k.build]
		c.keys = append(c.keys, k)
		r.keyed = true
	}
}

// buildSide is one materialized component of a sweep: its matches as a
// flat arena of coercion-node tuples, and a chained hash index over
// their join keys that is rebuilt for every pass.
type buildSide struct {
	tuples []graph.NodeID // stride len(component.vars)
	hash   []uint64       // per tuple, its key hash when the index was built
	next   []int          // per tuple, the next one in its bucket; -1 ends
	head   []int          // per bucket, its first tuple; -1 = empty; len 2^k
}

// joinScratch is the reusable memory of a chase's sweeps. Sweeps run
// one at a time, so one scratch serves every GED of a chase; the pool
// carries it from one chase to the next.
type joinScratch struct {
	sides []buildSide    // by component; sides[0] stays empty
	bind  []graph.NodeID // the full binding under construction
}

var joinPool = sync.Pool{New: func() any { return new(joinScratch) }}

// keyHash folds one key part into h. Equal keys hash equal; enforce
// sorts out the (vanishingly rare) unequal keys that do too.
func keyHash(h, part uint64) uint64 {
	h = (h + part) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// keyPart returns what a join key compares at base node u: its node
// class for an id literal, the value class of u.A for an attribute
// literal — ok is false when u's class carries no A, in which case no
// binding through u satisfies the literal yet.
func (eq *Eq) keyPart(id bool, u graph.NodeID, a int32) (part uint64, ok bool) {
	if id {
		return uint64(eq.NodeRoot(u)), true
	}
	t, ok := eq.slotRoot(u, a)
	return uint64(t), ok
}

// index rebuilds side's hash index for comp's keys under the current
// Eq. Tuples are chained in arena order, so probes see them in the
// matcher's enumeration order; a tuple lacking a key slot is left out.
func (side *buildSide) index(comp *component, eq *Eq, repOf []graph.NodeID) {
	stride := len(comp.vars)
	n := len(side.tuples) / stride
	buckets := 1
	for buckets < n {
		buckets <<= 1
	}
	side.head = resize(side.head, buckets)
	for i := range side.head {
		side.head[i] = -1
	}
	side.next = resize(side.next, n)
	side.hash = resize(side.hash, n)
tuples:
	for i := n - 1; i >= 0; i-- {
		t := side.tuples[i*stride : (i+1)*stride]
		var h uint64
		for _, k := range comp.keys {
			part, ok := eq.keyPart(k.id, repOf[t[k.build]], k.buildAttr)
			if !ok {
				continue tuples
			}
			h = keyHash(h, part)
		}
		b := h & uint64(buckets-1)
		side.hash[i], side.next[i], side.head[b] = h, side.head[b], i
	}
}

// resize returns s with length n, reusing its backing array if it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fullSweep enumerates Σ[gi] over the current host, component by
// component, and enforces every binding the join proposes. With doPark
// set and the whole cross product in view (no join key), antecedent-
// pending matches land on a rebuilt worklist so later bind-only rounds
// skip enumeration entirely; otherwise nothing is parked — parking a
// merge-heavy chase's pending set every round would never pay for
// itself, and a keyed join does not see its pending set at all.
func (c *chaser) fullSweep(gi int, doPark bool) {
	r := &c.rules[gi]
	c.wl[gi] = c.wl[gi][:0]
	c.parked[gi] = doPark && !r.keyed
	js := c.scratch
	if len(js.sides) < len(r.comps) {
		js.sides = append(js.sides, make([]buildSide, len(r.comps)-len(js.sides))...)
	}
	js.bind = resize(js.bind, len(r.vars))
	for k := 1; k < len(r.comps); k++ {
		side := &js.sides[k]
		side.tuples = side.tuples[:0]
		c.host.plan(&r.comps[k]).ForEachDenseCancel(c.stop, nil, func(t []graph.NodeID) bool {
			side.tuples = append(side.tuples, t...)
			return true
		})
	}
	for {
		if c.ctxErr = c.ctx.Err(); c.ctxErr != nil {
			return // a cut-short build side must not be joined
		}
		steps := len(c.res.Steps)
		for k := 1; k < len(r.comps); k++ {
			js.sides[k].index(&r.comps[k], c.eq, c.host.repOf)
		}
		c.host.plan(&r.comps[0]).ForEachDenseCancel(c.stop, nil, func(t []graph.NodeID) bool {
			for i, v := range r.comps[0].vars {
				js.bind[v] = t[i]
			}
			return c.extend(gi, 1)
		})
		// Keys go stale only by a step of this very pass; without one
		// (or without keys) nothing was withheld.
		if !r.keyed || len(c.res.Steps) == steps || c.ctxErr != nil || !c.eq.Consistent() {
			return
		}
	}
}

// extend completes the partial binding of Σ[gi]'s components [0, k)
// through the remaining ones and hands every full binding to enforce.
// It reports whether the sweep should go on.
func (c *chaser) extend(gi, k int) bool {
	if c.ctxErr = c.ctx.Err(); c.ctxErr != nil {
		return false
	}
	comps, bind, repOf := c.rules[gi].comps, c.scratch.bind, c.host.repOf
	if k == len(comps) {
		if !c.enforce(gi, repOf, bind) && c.parked[gi] {
			c.park(gi, bind)
		}
		return c.eq.Consistent()
	}
	comp, side := &comps[k], &c.scratch.sides[k]
	var h uint64
	for _, key := range comp.keys {
		part, ok := c.eq.keyPart(key.id, repOf[bind[key.probe]], key.probeAttr)
		if !ok {
			return true
		}
		h = keyHash(h, part)
	}
	stride := len(comp.vars)
	for i := side.head[h&uint64(len(side.head)-1)]; i >= 0; i = side.next[i] {
		if side.hash[i] != h {
			continue
		}
		for j, v := range comp.vars {
			bind[v] = side.tuples[i*stride+j]
		}
		if !c.extend(gi, k+1) {
			return false
		}
	}
	return true
}
