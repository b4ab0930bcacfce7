package reason

import (
	"context"
	"slices"
	"sync"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// Validator is a prepared validation context for repeated checking of
// one frozen graph against one rule set: over a read-only snapshot
// (interned symbols, label-grouped adjacency, and the attribute-value
// index folded in), pattern matching plans are compiled once, and
// constant literals of each antecedent are pushed down into the index —
// the match enumeration for a rule like φ₁ (y.type = "video game" →
// ...) starts from the indexed video-game nodes instead of scanning
// every product.
//
// Every search enumerates matches as dense binding vectors and judges
// each with the rule's CompiledRule, lowered once, here. A Match map is
// built only for the matches that turn out to be violations.
//
// The Validator reflects the snapshot it was built on; when the graph
// moves, Rebase follows a delta-maintained snapshot, sharing the plans
// and compiled rules, which hold no snapshot. It is immutable and safe
// for concurrent use.
type Validator struct {
	snap  *graph.Snapshot
	sigma ged.Set
	plans []*pattern.Plan
	rules []*CompiledRule
	// reg, once Observe attached one, receives the plan of every rule
	// Rebase recompiles.
	reg *obs.Registry

	// seeds are each rule's full-scan seeds on snap, built by the first
	// parallel scan (seedLists).
	seedOnce sync.Once
	seeds    []pattern.Seeds
}

// NewValidatorOn prepares a validation context over a snapshot — freeze
// a *graph.Graph first — sharing it instead of copying. Plans are
// compiled with every constant literal of the antecedent pushed down
// (PushdownFilters) and ordered so that the other literals close early
// (CloseHints): the full scans skip bindings failing the former inside
// candidate generation and abandon partial bindings the latter refute
// or settle.
func NewValidatorOn(snap *graph.Snapshot, sigma ged.Set) *Validator {
	v := &Validator{
		snap:  snap,
		sigma: sigma,
		plans: make([]*pattern.Plan, len(sigma)),
		rules: make([]*CompiledRule, len(sigma)),
	}
	for i, d := range sigma {
		v.plans[i] = pattern.CompileFiltered(d.Pattern, snap, PushdownFilters(d), CloseHints(d))
		v.rules[i] = CompileRule(d, snap)
	}
	return v
}

// PushdownFilters extracts the pushable antecedent literals of d: the
// constant literals x.A = c, which the matcher turns into posting-list
// intersections. Variable and id literals relate two bindings and cannot
// narrow a candidate set; full scans prune on them, and on the
// consequent, once their variables are bound (CloseHints).
func PushdownFilters(d *ged.GED) []pattern.ConstFilter {
	var fs []pattern.ConstFilter
	for _, l := range d.X {
		if pushable(l) {
			fs = append(fs, pattern.ConstFilter{Var: l.Left.Var, Attr: l.Left.Attr, Value: l.Right.Const})
		}
	}
	return fs
}

// pushable reports that l is a constant literal x.A = c.
func pushable(l ged.Literal) bool {
	k, ok := l.Kind()
	return ok && k == ged.ConstLiteral
}

// Rebase returns a validator over snap, sharing the receiver's compiled
// plans and literals when snap shares the receiver's snapshot lineage
// (it was produced by graph.Snapshot.Apply): symbol ids are append-only
// within a lineage, so a plan or rule is compiled again only when a
// symbol it found absent occurs in snap, and otherwise the per-delta
// cost is one Validator. An unrelated snapshot falls back to a full
// recompile.
func (v *Validator) Rebase(snap *graph.Snapshot) *Validator {
	if snap == v.snap {
		return v
	}
	if snap.Lineage() != v.snap.Lineage() {
		return NewValidatorOn(snap, v.sigma)
	}
	// Both slices stay the receiver's until a rule compiles again: the
	// first such rule copies the slice it changes.
	nv := &Validator{snap: snap, sigma: v.sigma, plans: v.plans, rules: v.rules, reg: v.reg}
	for i := range v.plans {
		if pl := v.plans[i].Rebind(snap); pl != v.plans[i] {
			if &nv.plans[0] == &v.plans[0] {
				nv.plans = slices.Clone(v.plans)
			}
			nv.plans[i] = pl
			nv.observePlan(i)
		}
		if r := v.rules[i].Rebind(snap); r != v.rules[i] {
			if &nv.rules[0] == &v.rules[0] {
				nv.rules = slices.Clone(v.rules)
			}
			nv.rules[i] = r
		}
	}
	return nv
}

// Snapshot returns the snapshot the validator is bound to.
func (v *Validator) Snapshot() *graph.Snapshot { return v.snap }

// RunCtx finds the violations of Σ in the snapshot, up to limit
// (limit <= 0 means all): G ⊨ Σ iff the result is empty (Section 5.3).
// It is sequential full validation through the prepared plans, with
// cooperative cancellation: ctx is checked between candidate matches
// and, via the matcher's abort hook, inside the backtracking search
// itself — so a cancelled context aborts even a match-free exponential
// exploration. The violations found so far are returned alongside
// ctx's error.
func (v *Validator) RunCtx(ctx context.Context, limit int) ([]Violation, error) {
	return scanParallel(ctx, v, limit, 1, v.violations)
}

// RunParallelCtx is RunCtx across workers, a first step toward the
// "parallel scalable algorithms for reasoning about GEDs" the paper
// leaves as future work (Section 9). Every worker shares the snapshot
// and the compiled plans; each rule's sequential search is cut into
// morsels — consecutive ranges of its plan's seed candidates — that the
// workers pull and search in the plan's own order, and the morsels'
// violations are concatenated in range order. The result is RunCtx's,
// order and limit prefix included, for any worker count. Every worker
// checks ctx between candidate matches and between morsels, so a
// cancelled context drains the pool promptly; what is returned
// alongside ctx's error is then a prefix of RunCtx's sequence.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 is RunCtx.
func (v *Validator) RunParallelCtx(ctx context.Context, limit, workers int) ([]Violation, error) {
	return scanParallel(ctx, v, limit, workers, v.violations)
}

// TouchingCtx finds the violations of Σ whose match involves at least
// one of the given nodes. After a localized update (attribute writes or
// edge insertions around a handful of nodes), the *new* violations all
// touch an updated node, so re-checking only those matches — rather
// than re-enumerating every match of every pattern — gives incremental
// validation:
//
//	snap := old.Apply(delta) // the post-update snapshot
//	newViolations, err := val.Rebase(snap).TouchingCtx(ctx, delta.TouchedNodes(), 0)
//
// Deletions are different: removing an edge or attribute can only
// *remove* violations (matches and antecedent satisfactions are
// monotone in the graph), so the stale entries of a maintained
// violation list are re-checked instead. ViolationStore packages both
// halves into one maintained set, and gedlib.Session.Apply drives it
// from the deltas it is handed.
//
// Matches touching several affected nodes are reported once, in
// canonical order (by GED index, then by match bindings in variable
// order), and a positive limit keeps that order's prefix. ctx is
// checked between candidate matches; the violations found before an
// abort are returned alongside ctx's error.
func (v *Validator) TouchingCtx(ctx context.Context, nodes []graph.NodeID, limit int) ([]Violation, error) {
	hs := getHits()
	defer hs.release()
	err := v.touching(ctx, nodes, hs)
	out := v.violations(hs.list)
	sortViolations(out, v.sigma)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, err
}

// hit is one violating match as the searches record it: the rule, the
// match's dense binding vector and the consequent literal it fails.
type hit struct {
	gi   int
	bind []graph.NodeID
	lit  *ged.Literal
}

// hits collects one search's violating matches. Each keeps a copy of
// the matcher's scratch binding vector, carved from a shared slab: a
// handful of allocations per search, not one per violation. A hits is
// scratch, pooled across searches (getHits, release) and reused across
// a parallel worker's morsels (reset): whoever reads its list copies
// out what it keeps — the binding vectors included — before the reuse.
type hits struct {
	list []hit
	slab []graph.NodeID
}

var hitsPool = sync.Pool{New: func() any { return new(hits) }}

func getHits() *hits { return hitsPool.Get().(*hits) }

// reset empties hs for another search. The newest slab is written over;
// older ones, and the literals, are let go.
func (hs *hits) reset() {
	clear(hs.list)
	hs.list = hs.list[:0]
	hs.slab = hs.slab[:0]
}

func (hs *hits) release() {
	hs.reset()
	hitsPool.Put(hs)
}

func (hs *hits) add(gi int, bind []graph.NodeID, l *ged.Literal) {
	if len(hs.slab)+len(bind) > cap(hs.slab) {
		hs.slab = make([]graph.NodeID, 0, max(2*cap(hs.slab), 16*len(bind)))
	}
	n := len(hs.slab)
	hs.slab = append(hs.slab, bind...)
	hs.list = append(hs.list, hit{gi: gi, bind: hs.slab[n:len(hs.slab):len(hs.slab)], lit: l})
}

// checkMatch judges one complete binding of Σ[gi]'s pattern: the first
// consequent literal it fails when it violates the rule, nil otherwise.
func (v *Validator) checkMatch(gi int, bind []graph.NodeID) *ged.Literal {
	return v.rules[gi].CheckMatch(v.snap, bind)
}

// pruner returns the Pruner of Σ[gi]'s full scans — its compiled rule —
// and whether they can be skipped outright because no match violates
// the rule.
func (v *Validator) pruner(gi int) (prune pattern.Pruner, skip bool) {
	return v.rules[gi], v.rules[gi].never
}

// violation materializes a hit — the one place validation builds a
// Match map.
func (v *Validator) violation(h hit) Violation {
	d := v.sigma[h.gi]
	return Violation{GED: d, Match: d.Pattern.MatchOf(h.bind), Literal: h.lit}
}

func (v *Validator) violations(hs []hit) []Violation {
	if len(hs) == 0 {
		return nil
	}
	out := make([]Violation, len(hs))
	for i, h := range hs {
		out[i] = v.violation(h)
	}
	return out
}

// scan enumerates rule after rule on the calling goroutine, each in its
// plan's own order — which already seeds at the smallest of each
// variable's label and pushed-literal postings — adding the hits to hs.
func (v *Validator) scan(ctx context.Context, limit int, hs *hits) error {
	stop := func() bool { return ctx.Err() != nil }
	for gi := range v.sigma {
		prune, skip := v.pruner(gi)
		if skip {
			continue
		}
		visit := func(bind []graph.NodeID) bool {
			if ctx.Err() != nil {
				return false
			}
			if l := v.checkMatch(gi, bind); l != nil {
				hs.add(gi, bind, l)
			}
			return limit <= 0 || len(hs.list) < limit
		}
		v.plans[gi].ForEachDenseCancel(v.snap, stop, prune, visit)
		if err := ctx.Err(); err != nil {
			return err
		}
		if limit > 0 && len(hs.list) >= limit {
			break
		}
	}
	return nil
}
