package pattern

import (
	"slices"

	"gedlib/internal/graph"
)

// SeedCount is the number of seeds of a full scan: the candidates of
// the plan's first variable, the level ForEachDenseCancel loops over
// outermost. The empty pattern has one seed, its one (empty) match.
func (pl *Plan) SeedCount() int {
	if len(pl.order) == 0 {
		return 1
	}
	return len(pl.seedList())
}

// ForEachDenseRangeCancel is ForEachDenseCancel restricted to the seeds
// [lo, hi) of [0, SeedCount()): the same order, pushed-down literals and
// pruning, so consecutive ranges enumerated one after another yield the
// full scan's sequence exactly, and results concatenated in range order
// reproduce it however the seeds were cut — the morsels of a parallel
// scan. The seed list is built once per plan, and each range counts
// only its own seeds as candidates, so the ranges of a cut together
// tally what one full scan does.
func (pl *Plan) ForEachDenseRangeCancel(lo, hi int, stop func() bool, prune Pruner, yield func([]graph.NodeID) bool) {
	if len(pl.order) == 0 {
		if lo <= 0 && hi > 0 {
			pl.ForEachDenseCancel(stop, prune, yield)
		}
		return
	}
	seeds := pl.seedList()
	lo, hi = max(lo, 0), min(hi, len(seeds))
	if lo >= hi {
		return
	}
	m := pl.newMatcher(stop, nil)
	m.dense = yield
	defer pl.putMatcher(m)
	m.order = pl.order
	m.setPruner(prune)
	if m.prune != nil && m.abandon(0) {
		return
	}
	// search's level 0 over the range; the loop is spelled out rather
	// than search taking a range, which would put a branch on every
	// level of every search.
	x := pl.order[0]
	cands := seeds[lo:hi]
	m.covered[x] = pl.seedCovered
	m.nCand += uint64(len(cands))
	if m.prune != nil && m.closeAt[1] != 0 {
		m.extendPruned(0, x, cands)
		return
	}
	for _, v := range cands {
		if !m.consistent(x, v) {
			continue
		}
		m.bind[x] = v
		m.search(1)
		m.bind[x] = unbound
		if m.done {
			return
		}
	}
}

// seedList returns the first variable's candidates as search computes
// them with nothing bound, built once per plan.
func (pl *Plan) seedList() []graph.NodeID {
	pl.seedOnce.Do(func() {
		m := pl.newMatcher(nil, nil)
		x := pl.order[0]
		seeds := m.candidates(x)
		if m.covered[x] {
			// An intersection with literal postings: the matcher's scratch.
			seeds = slices.Clone(seeds)
		}
		pl.seeds, pl.seedCovered = seeds, m.covered[x]
		pl.putMatcher(m)
	})
	return pl.seeds
}
