package reason

import (
	"context"
	"sort"

	"gedlib/internal/graph"
	"gedlib/internal/obs"
)

// ViolationStore is a maintained violation set: the answer to "which
// matches violate Σ" kept perpetually fresh under graph updates instead
// of recomputed. Seeding runs one full validation; from then on every
// update costs work proportional to the delta — the touched
// neighborhoods searched for new violations, and the stored entries
// that actually bind a touched node (found through an inverted
// node→entry index), re-checked:
//
//	st, _ := NewViolationStoreCtx(ctx, g.Freeze(), sigma)
//	...
//	from := st.Snapshot().SourceVersion()
//	mutate g
//	if delta := g.DeltaSince(from); delta != nil {
//		st.Apply(ctx, st.Snapshot().Apply(delta), delta.TouchedNodes())
//	} else {
//		// the journal no longer reaches back to from: re-seed from a
//		// fresh freeze (the Engine's graph-keyed shim does exactly
//		// this, and also when the backlog rivals the graph)
//	}
//
// Apply exploits the two monotonicity facts of add-only graphs that
// Validator.TouchingCtx documents: every *new* violation's match
// touches an updated node (matches are monotone, and attribute writes
// land on a match's own bindings), and an *existing* violation can only change
// status if its match touches an updated node. Touched entries are
// re-judged on their stored binding vector — which also refreshes the
// recorded evidence, since an update can fix the recorded literal while
// breaking another — and the touched neighborhoods are searched for
// new violations, deduplicated against what is already stored.
//
// Entries carry their canonical sort key and dense binding vector,
// computed once at admission: a delta re-sorts nothing — survivors stay
// in order and the (few, sorted among themselves) newcomers merge in.
//
// The store is single-writer: Apply must not run concurrently with
// itself or Violations. gedlib.Session provides the locking.
type ViolationStore struct {
	val  *Validator
	vs   []*storedViolation
	seen seenSet
	// byNode indexes live entries by every node their match binds.
	// Lists are pruned of dropped entries as they are visited and the
	// whole index is rebuilt when dross piles up.
	byNode map[graph.NodeID][]*storedViolation
	dross  int
	// stamp deduplicates multi-bind entries within one Apply.
	stamp uint64
	// view is the cached materialization of vs; deltas that change
	// nothing (the common case for localized updates) hand the same
	// slice back instead of rebuilding O(|V|) state per call. The
	// backing array is never written after materialization.
	view []Violation
	// maintenance counters (Observe); nil-safe no-op sinks by default.
	ctrRecheck, ctrDrop, ctrFresh *obs.Counter
}

// storedViolation is one maintained violation with its admission-time
// derived data.
type storedViolation struct {
	v       Violation
	gi      int
	key     string         // canonical within-GED sort key
	bind    []graph.NodeID // match bindings in variable order
	dropped bool
	stamp   uint64
}

func (e *storedViolation) less(o *storedViolation) bool {
	if e.gi != o.gi {
		return e.gi < o.gi
	}
	return e.key < o.key
}

// newEntry materializes hit h of one of val's searches as an entry,
// copying its binding vector out of the search's scratch. It reads only
// val, so seeding builds entries on the workers that found them.
func newEntry(val *Validator, h hit) *storedViolation {
	v := val.violation(h)
	return &storedViolation{
		v:    v,
		gi:   h.gi,
		key:  string(appendViolationKey(nil, v)),
		bind: append([]graph.NodeID(nil), h.bind...),
	}
}

// admitHits stores what one of the validator's touched searches found,
// in any order. Matches already stored are skipped before they are
// materialized.
func (st *ViolationStore) admitHits(hs []hit) {
	var add []*storedViolation
	for _, h := range hs {
		if st.seen.add(h.gi, h.bind) {
			add = append(add, newEntry(st.val, h))
		}
	}
	st.admit(add)
}

// admit indexes new entries, in any order, and merges them into the
// canonically ordered set; the caller has claimed their keys in st.seen.
func (st *ViolationStore) admit(add []*storedViolation) {
	if len(add) == 0 {
		return
	}
	for _, e := range add {
		for _, n := range distinctBind(e.bind) {
			st.byNode[n] = append(st.byNode[n], e)
		}
	}
	sort.Slice(add, func(i, j int) bool { return add[i].less(add[j]) })
	st.ctrFresh.Add(uint64(len(add)))
	st.vs = mergeStored(st.vs, add)
	st.view = nil
}

// distinctBind returns bind's distinct nodes (in place of a set; match
// vectors are tiny).
func distinctBind(bind []graph.NodeID) []graph.NodeID {
	out := bind[:0:0]
	for i, n := range bind {
		dup := false
		for _, m := range bind[:i] {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// distinctBindCount is len(distinctBind(bind)) without the allocation.
func distinctBindCount(bind []graph.NodeID) int {
	count := 0
	for i, n := range bind {
		dup := false
		for _, m := range bind[:i] {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			count++
		}
	}
	return count
}

// NewViolationStoreCtx seeds a maintained violation set with one full
// sequential validation through the prepared validator — share the
// Engine's (or any existing) validator to reuse its compiled plans;
// build a one-off with NewValidatorOn otherwise. On cancellation the
// partial store is not returned: a store is either complete or absent.
func NewViolationStoreCtx(ctx context.Context, val *Validator) (*ViolationStore, error) {
	return NewViolationStoreParallelCtx(ctx, val, 1)
}

// NewViolationStoreParallelCtx is NewViolationStoreCtx with the seeding
// validation data-parallel across workers (1 = sequential, <= 0 =
// GOMAXPROCS); the resulting store is identical — seeding is the one
// O(|G|) step of the store's life, so it deserves the same parallelism
// a full Validate gets.
func NewViolationStoreParallelCtx(ctx context.Context, val *Validator, workers int) (*ViolationStore, error) {
	es, err := scanParallel(ctx, val, 0, workers, func(hs []hit) []*storedViolation {
		es := make([]*storedViolation, len(hs))
		for i, h := range hs {
			es[i] = newEntry(val, h)
		}
		return es
	})
	if err != nil {
		return nil, err
	}
	st := &ViolationStore{val: val, byNode: make(map[graph.NodeID][]*storedViolation)}
	fresh := es[:0]
	for _, e := range es {
		if st.seen.add(e.gi, e.bind) {
			fresh = append(fresh, e)
		}
	}
	st.admit(fresh)
	return st, nil
}

// Snapshot returns the snapshot the store currently reflects.
func (st *ViolationStore) Snapshot() *graph.Snapshot { return st.val.Snapshot() }

// Validator returns the store's validator, rebased onto Snapshot() by
// the latest Apply.
func (st *ViolationStore) Validator() *Validator { return st.val }

// Violations returns the maintained set in canonical order. The slice
// (cached across no-change deltas, its backing array never rewritten)
// and the Match maps are read-only for the caller.
func (st *ViolationStore) Violations() []Violation {
	if st.view == nil {
		view := make([]Violation, len(st.vs))
		for i, e := range st.vs {
			view[i] = e.v
		}
		st.view = view
	}
	return st.view
}

// Apply advances the store to snap — the delta-updated successor of the
// store's current snapshot — where touched are the delta's touched
// nodes (Delta.TouchedNodes). On a non-nil error the store may reflect
// only part of the delta; callers should discard and re-seed it.
//
// Apply is recheck (drop/refresh the stored entries the delta touches)
// followed by the validator's own touched-neighborhood search, whose
// hits are admitted.
func (st *ViolationStore) Apply(ctx context.Context, snap *graph.Snapshot, touched []graph.NodeID) error {
	if err := st.recheck(ctx, snap, touched); err != nil || len(touched) == 0 {
		return err
	}
	// Find the new violations around the touched nodes; matches already
	// stored re-surface here and are dropped by the key set.
	hs := getHits()
	defer hs.release()
	err := st.val.touching(ctx, touched, hs)
	st.admitHits(hs.list)
	return err
}

// recheck is the first half of Apply: it rebases the store's validator
// onto snap and re-checks exactly the stored violations whose match
// binds a touched node, dropping the ones that no longer violate and
// refreshing recorded evidence. It does not search for new violations.
func (st *ViolationStore) recheck(ctx context.Context, snap *graph.Snapshot, touched []graph.NodeID) error {
	st.val = st.val.Rebase(snap)
	if len(touched) == 0 {
		return ctx.Err()
	}
	// Re-check exactly the stored violations whose match the delta
	// touches — an untouched match cannot have changed status. The
	// index lists are compacted of dropped entries as a side effect.
	st.stamp++
	refreshed := false
	droppedAny := false
	for _, n := range touched {
		list := st.byNode[n]
		if len(list) == 0 {
			continue
		}
		live := list[:0]
		for _, e := range list {
			if e.dropped {
				st.dross--
				continue
			}
			live = append(live, e)
			if e.stamp == st.stamp {
				continue
			}
			e.stamp = st.stamp
			st.ctrRecheck.Inc()
			// Snapshots only grow, so the stored match still exists
			// and its status turns on the literals alone.
			l := st.val.checkMatch(e.gi, e.bind)
			switch {
			case l == nil:
				st.ctrDrop.Inc()
				st.seen.remove(e.gi, e.bind)
				e.dropped = true
				// The entry appears in one index list per distinct
				// bound node; one reference is pruned right here.
				st.dross += distinctBindCount(e.bind) - 1
				live = live[:len(live)-1]
				droppedAny = true
			case *l != *e.v.Literal:
				// The update fixed the recorded literal but broke
				// another; keep the evidence current. Values, not
				// pointers, are compared: a rule recompiled by Rebind
				// holds its false desugaring anew.
				e.v.Literal = l
				refreshed = true
			}
		}
		if len(live) == 0 {
			delete(st.byNode, n)
		} else {
			st.byNode[n] = live
		}
	}
	if droppedAny {
		kept := st.vs[:0]
		for _, e := range st.vs {
			if !e.dropped {
				kept = append(kept, e)
			}
		}
		st.vs = kept
	}
	if refreshed || droppedAny {
		st.view = nil
	}
	if st.dross > 4*len(st.vs)+64 {
		st.rebuildIndex()
	}
	return ctx.Err()
}

// rebuildIndex re-derives byNode from the live entries, shedding the
// references dropped entries left in unvisited lists.
func (st *ViolationStore) rebuildIndex() {
	st.byNode = make(map[graph.NodeID][]*storedViolation, len(st.byNode))
	for _, e := range st.vs {
		for _, n := range distinctBind(e.bind) {
			st.byNode[n] = append(st.byNode[n], e)
		}
	}
	st.dross = 0
}

// mergeStored folds the sorted newcomers into the sorted store by a
// backward in-place merge, reusing the store's capacity (growing it
// only amortizedly) instead of reallocating the whole set per delta.
func mergeStored(a, b []*storedViolation) []*storedViolation {
	i := len(a) - 1
	out := append(a, b...)
	for j, w := len(b)-1, len(out)-1; j >= 0; w-- {
		if i >= 0 && b[j].less(a[i]) {
			out[w] = a[i]
			i--
		} else {
			out[w] = b[j]
			j--
		}
	}
	return out
}
