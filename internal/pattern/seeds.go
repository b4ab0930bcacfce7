package pattern

import (
	"slices"

	"gedlib/internal/graph"
)

// Seeds are the seeds of a full scan over one snapshot: the candidates
// of the plan's first variable, the level ForEachDenseCancel loops over
// outermost. The empty pattern has one seed, its one (empty) match.
// Build them once per (plan, snapshot) with Plan.Seeds and cut [0,
// Len()) into the ranges of ForEachDenseRangeCancel.
type Seeds struct {
	ids   []graph.NodeID
	empty bool // the empty pattern
}

// Len is the number of seeds.
func (s Seeds) Len() int {
	if s.empty {
		return 1
	}
	return len(s.ids)
}

// Seeds returns the seeds of a full scan of pl over snap, as search
// computes them with nothing bound.
func (pl *Plan) Seeds(snap *graph.Snapshot) Seeds {
	if len(pl.order) == 0 {
		return Seeds{empty: true}
	}
	m := pl.newMatcher(snap, nil, nil)
	defer pl.putMatcher(m)
	x := pl.order[0]
	ids := m.candidates(x)
	if m.covered[x] {
		// An intersection with literal postings: the matcher's scratch.
		ids = slices.Clone(ids)
	}
	return Seeds{ids: ids}
}

// ForEachDenseRangeCancel is ForEachDenseCancel restricted to the seeds
// [lo, hi) of seeds, which pl.Seeds built on snap: the same order,
// pushed-down literals and pruning, so consecutive ranges enumerated one
// after another yield the full scan's sequence exactly, and results
// concatenated in range order reproduce it however the seeds were cut —
// the morsels of a parallel scan. Each range counts only its own seeds
// as candidates, so the ranges of a cut together tally what one full
// scan does.
func (pl *Plan) ForEachDenseRangeCancel(snap *graph.Snapshot, seeds Seeds, lo, hi int, stop func() bool, prune Pruner, yield func([]graph.NodeID) bool) {
	if seeds.empty {
		if lo <= 0 && hi > 0 {
			pl.ForEachDenseCancel(snap, stop, prune, yield)
		}
		return
	}
	lo, hi = max(lo, 0), min(hi, len(seeds.ids))
	if lo >= hi {
		return
	}
	m := pl.newMatcher(snap, stop, nil)
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
	cands := seeds.ids[lo:hi]
	// With nothing bound, candidates folds in exactly x's pushed-down
	// literal postings: the seeds satisfy them when x has any.
	m.covered[x] = len(pl.varFilt[x]) > 0
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
