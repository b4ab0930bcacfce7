package reason

import (
	"context"
	"strconv"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// ValidateTouching finds the violations of Σ whose match involves at
// least one of the given nodes. After a localized update (attribute
// writes or edge insertions around a handful of nodes), the *new*
// violations all touch an updated node, so re-checking only those
// matches — rather than re-enumerating every match of every pattern —
// gives incremental validation:
//
//	dirty := g mutated at nodes N
//	newViolations := ValidateTouching(dirty, sigma, N, 0)
//
// Deletions are different: removing an edge or attribute can only
// *remove* violations (matches and antecedent satisfactions are
// monotone in the graph), so the stale entries of a maintained violation
// list are re-checked with StillViolating instead. ViolationStore
// packages both halves into one maintained set, and Engine.Apply drives
// it from the graph's own change journal.
//
// Matches touching several affected nodes are reported once. The result
// order is canonical, as in ValidateParallel.
func ValidateTouching(g *graph.Graph, sigma ged.Set, nodes []graph.NodeID, limit int) []Violation {
	out, _ := ValidateTouchingCtx(context.Background(), g, sigma, nodes, limit)
	return out
}

// ValidateTouchingCtx is ValidateTouching with cooperative cancellation,
// checked between candidate matches; the violations found before the
// abort are returned alongside ctx's error.
func ValidateTouchingCtx(ctx context.Context, g *graph.Graph, sigma ged.Set, nodes []graph.NodeID, limit int) ([]Violation, error) {
	return ValidateTouchingOnCtx(ctx, g, sigma, nodes, limit)
}

// ValidateTouchingOnCtx is ValidateTouchingCtx over any matcher host:
// a delta-maintained snapshot of the post-update graph (the fast path
// the Engine uses), or the mutable graph itself. Plans are compiled per
// call; a Validator's TouchingCtx reuses its prepared plans instead.
func ValidateTouchingOnCtx(ctx context.Context, h pattern.Host, sigma ged.Set, nodes []graph.NodeID, limit int) ([]Violation, error) {
	return newValidator(h, sigma).TouchingCtx(ctx, nodes, limit)
}

// touching is the touched-neighborhood search: every rule, pivoted on
// every pattern variable over nodes. Hits come back in no particular
// order; cancellation returns the ones found so far. It runs unpruned
// by measurement: its candidates are label scans below a pivot far from
// the plan's seed, and judging each cost more than the few intersections
// it saved (apply_stream 303 → 257 ops/s, candidates per op unchanged).
func (v *Validator) touching(ctx context.Context, nodes []graph.NodeID) ([]hit, error) {
	if len(nodes) == 0 {
		return nil, ctx.Err()
	}
	var hs hits
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
				return hs.list, err
			}
		}
	}
	return hs.list, nil
}

// StillViolating re-checks a previously-found violation against the
// current state of a host (graph or snapshot): the match must still
// exist (labels and edges), the antecedent must still hold, and some
// consequent literal must still fail.
func StillViolating(h pattern.Host, v Violation) bool {
	_, ok := FailingLiteral(h, v)
	return ok
}

// FailingLiteral is StillViolating exposing the evidence: the first
// consequent literal that currently fails. It may differ from the
// recorded v.Literal — an update can fix the recorded literal while
// breaking another — which is why maintained stores must refresh their
// entries from it rather than keep the stale one.
func FailingLiteral(h pattern.Host, v Violation) (ged.Literal, bool) {
	// Nodes must still exist.
	for _, x := range v.GED.Pattern.Vars() {
		n, ok := v.Match[x]
		if !ok || int(n) >= h.NumNodes() {
			return ged.Literal{}, false
		}
		if !graph.LabelMatches(v.GED.Pattern.Label(x), h.Label(n)) {
			return ged.Literal{}, false
		}
	}
	for _, e := range v.GED.Pattern.Edges() {
		if !pattern.HostHasCompatibleEdge(h, v.Match[e.Src], e.Label, v.Match[e.Dst]) {
			return ged.Literal{}, false
		}
	}
	if l := failing(h, v.GED, v.Match); l != nil {
		return *l, true
	}
	return ged.Literal{}, false
}

// failing is the Host-generic verdict on one match of d's pattern,
// literal by literal through HoldsInGraph: the first consequent literal
// m fails when m ⊨ X, nil when m does not violate d. CompiledRule's
// CheckMatch is the dense equivalent snapshot validation runs on.
func failing(h pattern.Host, d *ged.GED, m pattern.Match) *ged.Literal {
	for _, l := range d.X {
		if !HoldsInGraph(h, l, m) {
			return nil
		}
	}
	for i := range d.Y {
		if !HoldsInGraph(h, d.Y[i], m) {
			return &d.Y[i]
		}
	}
	return nil
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
