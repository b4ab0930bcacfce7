package reason

import (
	"context"
	"sort"
	"strconv"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
)

// touching is the touched-neighborhood search: every rule, pivoted on
// every pattern variable over nodes. It adds its hits to hs in no
// particular order; cancellation leaves the ones found so far. It runs
// unpruned by measurement: its candidates are label scans below a pivot
// far from the plan's seed, and judging each cost more than the few
// intersections it saved (apply_stream 303 → 257 ops/s, candidates per
// op unchanged).
func (v *Validator) touching(ctx context.Context, nodes []graph.NodeID, hs *hits) error {
	if len(nodes) == 0 {
		return ctx.Err()
	}
	var seen seenSet
	stop := func() bool { return ctx.Err() != nil }
	for gi, d := range v.sigma {
		// A match with several affected bindings surfaces once per
		// (pivot, binding); judge it the first time only.
		visit := func(bind []graph.NodeID) bool {
			if ctx.Err() != nil {
				return false
			}
			if seen.add(gi, bind) {
				if l := v.checkMatch(gi, bind); l != nil {
					hs.add(gi, bind, l)
				}
			}
			return true
		}
		for _, pivot := range d.Pattern.Vars() {
			v.plans[gi].ForEachDensePivotCancel(pivot, nodes, stop, nil, visit)
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendViolationKey appends the canonical within-GED sort key of v —
// the match bindings in variable order — to buf. The ViolationStore
// precomputes and caches these keys so its per-delta maintenance never
// re-strings the stored set.
func appendViolationKey(buf []byte, v Violation) []byte {
	for _, x := range v.GED.Pattern.Vars() {
		buf = append(buf, string(x)...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(v.Match[x]), 10)
		buf = append(buf, ';')
	}
	return buf
}

// sortViolations puts violations into the canonical order of the
// touched search and the store: by GED index in sigma, then by the
// match bindings in variable order. The per-violation keys are computed
// once up front — not inside the comparator, which would redo the
// strconv/concat work O(n log n) times.
func sortViolations(vs []Violation, sigma ged.Set) {
	if len(vs) < 2 {
		return
	}
	idx := make(map[*ged.GED]int, len(sigma))
	for i, d := range sigma {
		idx[d] = i
	}
	type keyed struct {
		gi  int
		key string
		v   Violation
	}
	ks := make([]keyed, len(vs))
	var buf []byte
	for i, v := range vs {
		buf = appendViolationKey(buf[:0], v)
		ks[i] = keyed{gi: idx[v.GED], key: string(buf), v: v}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].gi != ks[j].gi {
			return ks[i].gi < ks[j].gi
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		vs[i] = ks[i].v
	}
}

// denseKeyVars is how many bindings the allocation-free match key holds
// inline; patterns are small (the paper's examples top out at four
// variables, doubled keys at eight), so the string spill path is all
// but dead code.
const denseKeyVars = 8

// denseKey identifies one (GED, match) pair without allocating: the
// dense binding vector in variable order, inlined into a comparable
// array. It replaces the fmt.Sprintf string key that used to dominate
// the touched-neighborhood profile.
type denseKey struct {
	gi  int32
	n   int32
	ids [denseKeyVars]graph.NodeID
}

// seenSet is a set of (GED, match) keys: dense for patterns that fit
// the inline array, a string map as the spill path for wider ones. The
// zero value is ready to use.
type seenSet struct {
	dense map[denseKey]bool
	wide  map[string]bool
}

func makeKey(gi int, bind []graph.NodeID) (denseKey, bool) {
	if len(bind) > denseKeyVars {
		return denseKey{}, false
	}
	k := denseKey{gi: int32(gi), n: int32(len(bind))}
	copy(k.ids[:], bind)
	return k, true
}

func wideKey(gi int, bind []graph.NodeID) string {
	buf := make([]byte, 0, 16+8*len(bind))
	buf = strconv.AppendInt(buf, int64(gi), 10)
	for _, n := range bind {
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	return string(buf)
}

// add inserts the key of (gi, bind) — a match's dense binding vector,
// read during the call only — and reports whether it was absent.
func (s *seenSet) add(gi int, bind []graph.NodeID) bool {
	if k, ok := makeKey(gi, bind); ok {
		if s.dense == nil {
			s.dense = make(map[denseKey]bool)
		}
		if s.dense[k] {
			return false
		}
		s.dense[k] = true
		return true
	}
	k := wideKey(gi, bind)
	if s.wide == nil {
		s.wide = make(map[string]bool)
	}
	if s.wide[k] {
		return false
	}
	s.wide[k] = true
	return true
}

// remove deletes the key of (gi, bind).
func (s *seenSet) remove(gi int, bind []graph.NodeID) {
	if k, ok := makeKey(gi, bind); ok {
		delete(s.dense, k)
		return
	}
	delete(s.wide, wideKey(gi, bind))
}
