package chase

import (
	"context"
	"errors"
	"fmt"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// ErrDepthExceeded is returned by RunCtx when the chase has not reached
// a fixpoint within the configured number of rounds.
var ErrDepthExceeded = errors.New("chase: depth bound exceeded")

// Coercion is the graph G_Eq of Section 4.1 together with the maps
// relating it to the base graph: each node class becomes one node,
// labeled by the class's resolved label; edges are transported; and
// attributes with known constants are materialized.
type Coercion struct {
	// Graph is G_Eq.
	Graph *graph.Graph
	// NodeOf maps each base node to its coercion node.
	NodeOf map[graph.NodeID]graph.NodeID
	// RepOf maps each coercion node back to its class representative in
	// the base graph.
	RepOf []graph.NodeID
}

// Coerce builds the coercion of eq on its base graph. It must only be
// called on a consistent Eq (G_Eq is undefined otherwise).
func Coerce(eq *Eq) *Coercion {
	if !eq.Consistent() {
		panic("chase: coercion of inconsistent Eq")
	}
	g := eq.Graph()
	co := graph.New()
	c := &Coercion{Graph: co, NodeOf: make(map[graph.NodeID]graph.NodeID, g.NumNodes())}
	for _, id := range g.Nodes() {
		r := eq.NodeRoot(id)
		if cn, ok := c.NodeOf[r]; ok {
			c.NodeOf[id] = cn
			continue
		}
		cn := co.AddNode(eq.ClassLabel(r))
		c.NodeOf[r] = cn
		c.NodeOf[id] = cn
		c.RepOf = append(c.RepOf, r)
	}
	for _, e := range g.Edges() {
		co.AddEdge(c.NodeOf[e.Src], e.Label, c.NodeOf[e.Dst])
	}
	var cas []classAttr // one sorted scratch for every class
	for cn, r := range c.RepOf {
		cas = eq.classAttrs(cas, r)
		for _, ca := range cas {
			if v, ok := eq.ClassConst(ca.term); ok {
				co.SetAttr(graph.NodeID(cn), ca.name, v)
			}
		}
	}
	return c
}

// Step records one chase step Eq ⇒_(φ,h) Eq′ of the trace: which GED of
// Σ was applied, under which match (given as base-graph class
// representatives), enforcing which consequent literal.
type Step struct {
	// GED is the index of the applied dependency in Σ.
	GED int
	// Match maps the pattern variables to base-graph nodes (class
	// representatives at the time of the step).
	Match map[pattern.Var]graph.NodeID
	// Literal is the index of the enforced literal in the GED's Y.
	Literal int
}

// Result is the outcome chase(G, Σ) of Theorem 1: by the Church-Rosser
// property it is independent of the order in which GEDs were applied.
type Result struct {
	// Eq is the final equivalence relation. When the chase is invalid it
	// holds the relation at the failing step, with its Conflict set.
	Eq *Eq
	// Coercion is the final coercion G_Eq; nil when the chase is invalid
	// (the paper's ⊥).
	Coercion *Coercion
	// Steps is the chasing sequence applied.
	Steps []Step
	// Sigma is the chased dependency set.
	Sigma ged.Set
}

// Consistent reports whether the chase terminated in a valid sequence.
func (r *Result) Consistent() bool { return r.Eq.Consistent() }

// Seed is an initial extension of Eq0 before the chase runs; it realizes
// the relation Eq_X of the implication analysis (Section 5.2), expressed
// over base-graph nodes.
type Seed struct {
	Literal ged.Literal
	// Nodes resolves the literal's variables to base-graph nodes.
	Nodes map[pattern.Var]graph.NodeID
}

// SeedOf translates a literal over pattern variables into a Seed via the
// variable-to-node map vm.
func SeedOf(l ged.Literal, vm map[pattern.Var]graph.NodeID) Seed {
	nodes := make(map[pattern.Var]graph.NodeID)
	for _, v := range l.Vars() {
		nodes[v] = vm[v]
	}
	return Seed{Literal: l, Nodes: nodes}
}

// Run chases g by sigma starting from Eq0 (Theorem 1). The trace, final
// relation and coercion are returned; on an invalid sequence the result's
// Coercion is nil and Eq carries the conflict.
func Run(g *graph.Graph, sigma ged.Set) *Result {
	return RunSeeded(g, sigma, nil)
}

// RunSeeded chases g by sigma starting from Eq0 extended by the given
// seed literals — the chase(G_Q, Eq_X, Σ) of Section 5.2. Seeds are
// applied with ReasonGiven in order; a conflicting seed set makes the
// chase invalid immediately (an inconsistent Eq_X, Section 4.1 case (b)).
func RunSeeded(g *graph.Graph, sigma ged.Set, seeds []Seed) *Result {
	res, _ := RunCtx(context.Background(), g, sigma, seeds, 0)
	return res
}

// Options tunes RunCtxOpts. The zero value selects the production
// configuration.
type Options struct {
	// RefreezeEachRound forces the legacy behavior of re-coercing and
	// re-freezing the coercion graph at the start of every fixpoint
	// round, instead of maintaining one live coercion and advancing its
	// snapshot by deltas. Both modes compute the same chase (the
	// differential tests assert it); the flag exists so the benchmark
	// harness can measure the delta path against the full-freeze
	// baseline.
	RefreezeEachRound bool
}

// RunCtx is RunSeeded with cooperative cancellation and an optional
// round bound. The chase checks ctx between rounds, between matches and
// inside the matcher's backtracking search; on cancellation the partial
// Result (with its coercion materialized when the relation is still
// consistent) is returned alongside ctx's error. maxRounds > 0 bounds
// the number of fixpoint rounds (each round applies every GED over the
// current coercion); if the chase has not converged within the bound,
// ErrDepthExceeded is returned with the partial result. maxRounds <= 0
// means unbounded — the chase always terminates by Theorem 1, so the
// bound is a resource valve, not a semantics knob.
//
// The coercion graph is immutable within a round (chase steps mutate
// eq, not G_Eq), and between rounds it changes only by the node merges
// the round performed. RunCtx therefore builds the coercion and its
// frozen snapshot once, and each subsequent round only transports the
// merged classes' adjacency onto their surviving carriers and advances
// the snapshot by the resulting delta (graph.Snapshot.Apply) — no
// per-round O(|G|) freeze. Compiled match plans are rebound across the
// deltas for the same reason.
func RunCtx(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int) (*Result, error) {
	return RunCtxOpts(ctx, g, sigma, seeds, maxRounds, Options{})
}

// RunCtxOpts is RunCtx with explicit Options.
func RunCtxOpts(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int, opts Options) (*Result, error) {
	eq := NewEq(g)
	res := &Result{Eq: eq, Sigma: sigma}
	c := &chaser{ctx: ctx, eq: eq, res: res, sigma: sigma, maxRounds: maxRounds}
	if o := obs.FromContext(ctx); o != nil {
		reg := o.Registry()
		c.roundCtr = reg.Counter("ged_chase_rounds_total", "chase fixpoint rounds executed")
		c.matchCtr = reg.Counter("ged_chase_matches_total", "pattern matches the chase checked a dependency's antecedent on")
		c.stepCtr = reg.Counter("ged_chase_steps_total", "chase steps applied")
		defer c.report()
	}
	c.vars = make([][]pattern.Var, len(sigma))
	c.clits = make([]clitSet, len(sigma))
	for gi, d := range sigma {
		c.vars[gi] = d.Pattern.Vars()
		c.clits[gi] = compileLits(d, c.vars[gi])
	}
	for i, s := range seeds {
		applyLiteral(eq, s.Literal, s.Nodes, Reason{Kind: ReasonGiven, Seed: i})
		if !eq.Consistent() {
			return res, nil
		}
	}
	if opts.RefreezeEachRound {
		return c.runRefreeze()
	}
	return c.runDelta()
}

// chaser carries the shared state of one chase run.
type chaser struct {
	ctx       context.Context
	eq        *Eq
	res       *Result
	sigma     ged.Set
	vars      [][]pattern.Var // per GED, the pattern's variable order
	clits     []clitSet       // per GED, literals with variables index-resolved
	baseBuf   []graph.NodeID  // reused base-node translation scratch
	maxRounds int
	rounds    int
	// The ctx-injected observer's tallies, often nil. Rounds are counted
	// as they start; matches and steps accumulate in matches and
	// res.Steps and are added by report, once per sweep.
	roundCtr, matchCtr, stepCtr *obs.Counter
	matches, reportedSteps      int
	// per-round accumulators
	changed bool
	// merges collects the node identifications of the current round, to
	// be folded into the live coercion before the next one.
	merges [][2]graph.NodeID
}

// clit is one GED literal with its variables resolved to indexes of the
// pattern's variable order, so the fixpoint loop evaluates it straight
// off a dense binding vector — no per-match map. Kind mirrors
// Literal.Kind.
type clit struct {
	kind   ged.LiteralKind
	li, ri int // variable indexes (ri unused for const literals)
	la, ra graph.Attr
	c      graph.Value
	src    ged.Literal // the original literal, for step application
}

// clitSet is one GED's compiled antecedent and consequent.
type clitSet struct {
	x, y []clit
}

func compileLits(d *ged.GED, vars []pattern.Var) clitSet {
	idx := make(map[pattern.Var]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	one := func(l ged.Literal) clit {
		k, ok := l.Kind()
		if !ok {
			panic(fmt.Sprintf("chase: non-GED literal %s", l))
		}
		cl := clit{kind: k, li: idx[l.Left.Var], la: l.Left.Attr, src: l}
		switch k {
		case ConstKind:
			cl.c = l.Right.Const
		default:
			cl.ri = idx[l.Right.Var]
			cl.ra = l.Right.Attr
		}
		return cl
	}
	var cs clitSet
	for _, l := range d.X {
		cs.x = append(cs.x, one(l))
	}
	for _, l := range d.Y {
		cs.y = append(cs.y, one(l))
	}
	return cs
}

// clitHolds evaluates one compiled literal against eq under the base
// node vector (bind translated through repOf by the caller).
func (c *chaser) clitHolds(cl *clit, base []graph.NodeID) bool {
	switch cl.kind {
	case ConstKind:
		v, ok := c.eq.AttrConst(base[cl.li], cl.la)
		return ok && v.Equal(cl.c)
	case VarKind:
		return c.eq.SameValue(base[cl.li], cl.la, base[cl.ri], cl.ra)
	default:
		return c.eq.SameNode(base[cl.li], base[cl.ri])
	}
}

// abort finalizes an interrupted chase: the partial result still
// carries a usable coercion so callers holding it do not trip over a
// nil Coercion in Materialize.
func (c *chaser) abort(err error) (*Result, error) {
	if c.eq.Consistent() {
		c.res.Coercion = Coerce(c.eq)
	}
	return c.res, err
}

// checkRound guards the top of each fixpoint round; done reports that
// the caller must return (res, err) immediately.
func (c *chaser) checkRound() (*Result, error, bool) {
	if err := c.ctx.Err(); err != nil {
		r, e := c.abort(err)
		return r, e, true
	}
	if c.maxRounds > 0 && c.rounds >= c.maxRounds {
		r, e := c.abort(ErrDepthExceeded)
		return r, e, true
	}
	c.rounds++
	c.roundCtr.Inc()
	return nil, nil, false
}

// report adds the matches and steps since the last report to the
// observer's counters.
func (c *chaser) report() {
	c.matchCtr.Add(uint64(c.matches))
	c.stepCtr.Add(uint64(len(c.res.Steps) - c.reportedSteps))
	c.matches, c.reportedSteps = 0, len(c.res.Steps)
}

// enforce processes one coercion match of Σ[gi], given as the dense
// binding vector bind over the pattern's variable order: translate to
// base-graph class representatives, check the antecedent, and enforce
// every failing consequent literal as chase steps. It reports whether
// the match is settled — enforced or already satisfied — and therefore
// never needs to be revisited: literal satisfaction under Eq is
// monotone (Eq only grows), so a settled match stays settled. An
// antecedent that does not (yet) hold leaves the match pending.
//
// The check phase runs entirely on dense vectors and compiled literals;
// a variable map materializes only on the rare slow path that actually
// applies a step (and is then owned by the recorded trace entry).
func (c *chaser) enforce(gi int, repOf []graph.NodeID, bind []graph.NodeID) (settled bool) {
	c.matches++
	base := c.baseBuf[:0]
	for _, cn := range bind {
		base = append(base, repOf[cn])
	}
	c.baseBuf = base
	cs := &c.clits[gi]
	for i := range cs.x {
		if !c.clitHolds(&cs.x[i], base) {
			return false
		}
	}
	for li := range cs.y {
		cl := &cs.y[li]
		if c.clitHolds(cl, base) {
			continue
		}
		vars := c.vars[gi]
		m := make(map[pattern.Var]graph.NodeID, len(vars))
		for i, x := range vars {
			m[x] = base[i]
		}
		step := len(c.res.Steps)
		c.res.Steps = append(c.res.Steps, Step{GED: gi, Match: m, Literal: li})
		if cl.kind == IDKind {
			c.merges = append(c.merges, [2]graph.NodeID{base[cl.li], base[cl.ri]})
		}
		applyLiteral(c.eq, cl.src, m, Reason{Kind: ReasonStep, Step: step})
		c.changed = true
		if !c.eq.Consistent() {
			return true
		}
	}
	return true
}

// runRefreeze is the legacy fixpoint loop: every round re-coerces,
// re-freezes and re-enumerates every match of every GED. It is the
// benchmark baseline and the differential-test oracle for runDelta.
func (c *chaser) runRefreeze() (*Result, error) {
	eq, sigma := c.eq, c.sigma
	stop := func() bool { return c.ctx.Err() != nil }
	for {
		if r, err, done := c.checkRound(); done {
			return r, err
		}
		co := Coerce(eq)
		host := co.Graph.Freeze()
		c.changed = false
		// The per-round coercion rebuild makes enforce's merge list
		// useless here; keep it from accumulating across the run.
		c.merges = c.merges[:0]
		var ctxErr error
		for gi, d := range sigma {
			pattern.Compile(d.Pattern, host).ForEachDenseCancel(stop, nil, func(bind []graph.NodeID) bool {
				if ctxErr = c.ctx.Err(); ctxErr != nil {
					return false
				}
				c.enforce(gi, co.RepOf, bind)
				return eq.Consistent()
			})
			if ctxErr = c.ctx.Err(); ctxErr != nil {
				return c.abort(ctxErr)
			}
			if !eq.Consistent() {
				return c.res, nil
			}
		}
		if !c.changed {
			break
		}
	}
	c.res.Coercion = Coerce(eq)
	return c.res, nil
}

// pendingMatch is one enumerated match whose antecedent did not hold
// yet, kept on the worklist as its dense coercion-node binding vector.
type pendingMatch []graph.NodeID

// deltaRun is the state of one runDelta: the live coercion, the join
// plans of Σ and the parked worklists.
type deltaRun struct {
	*chaser
	lc      *liveCoercion
	joins   []joinPlan   // per GED, its pattern's components and join keys
	scratch *joinScratch // pooled build-side arenas, see fullSweep
	stop    func() bool  // the matcher's abort hook: ctx cancelled
	wl      [][]pendingMatch
	// parked[gi] reports that wl[gi] holds gi's complete pending set for
	// the current graph. Parking gives up past a cap — a pending set far
	// larger than the graph (unlinked components cross-multiply) costs
	// more to park and re-check than to re-enumerate, and would hold
	// O(matches) memory.
	parked  []bool
	parkCap int
	arena   []graph.NodeID // chunked backing for parked binding vectors
	ctxErr  error          // cancellation seen inside a sweep
}

func (r *deltaRun) park(gi int, bind []graph.NodeID) {
	if len(r.wl[gi]) >= r.parkCap {
		r.parked[gi] = false
		r.wl[gi] = r.wl[gi][:0]
		return
	}
	if len(r.arena)+len(bind) > cap(r.arena) {
		r.arena = make([]graph.NodeID, 0, 16*1024)
	}
	lo := len(r.arena)
	r.arena = append(r.arena, bind...)
	r.wl[gi] = append(r.wl[gi], pendingMatch(r.arena[lo:len(r.arena):len(r.arena)]))
}

// runDelta is the production fixpoint loop. It builds the coercion and
// its frozen snapshot once (liveCoercion) and exploits two monotonicity
// facts:
//
//   - the coercion graph changes between rounds only when the previous
//     round merged node classes; a round after pure attribute-bind
//     steps re-checks its parked worklist by literal evaluation alone —
//     no coercion rebuild, no freeze, and no match enumeration at all;
//   - Eq only grows, so a match that was enforced (or already
//     satisfied) is settled forever; only matches whose antecedent did
//     not hold yet are parked.
//
// After a merge round the live coercion absorbs the merges and advances
// its snapshot by the working graph's own delta (Snapshot.Apply), and
// the round re-sweeps the matches over the patched snapshot with
// rebound plans — the legacy cost minus the per-round Coerce+Freeze,
// which is the honest floor for merge-heavy rounds, whose new-match set
// is of the same order as the full match set.
func (c *chaser) runDelta() (*Result, error) {
	eq, sigma := c.eq, c.sigma
	r := &deltaRun{
		chaser:  c,
		joins:   make([]joinPlan, len(sigma)),
		scratch: joinPool.Get().(*joinScratch),
		stop:    func() bool { return c.ctx.Err() != nil },
		wl:      make([][]pendingMatch, len(sigma)),
		parked:  make([]bool, len(sigma)),
	}
	defer joinPool.Put(r.scratch)
	slots := 0
	for gi, d := range sigma {
		r.joins[gi] = splitPattern(d.Pattern, c.clits[gi].x, slots)
		slots += len(r.joins[gi].comps)
	}
	r.lc = newLiveCoercion(eq, slots)
	r.parkCap = 64 + 8*r.lc.co.Graph.NumNodes()

	structural := true // graph-shape change since the last sweep
	for {
		if res, err, done := c.checkRound(); done {
			return res, err
		}
		if len(c.merges) > 0 {
			r.lc.advance(c.merges)
			c.merges = c.merges[:0]
			structural = true
		}
		c.changed = false

		for gi := range sigma {
			if structural || !r.parked[gi] {
				// Park on the opening round and on the forced re-sweep
				// at a merge→bind transition — the rounds a worklist
				// will serve. Structural (merge) rounds rebuild the
				// matching space anyway, so parking there would never
				// pay for itself.
				r.fullSweep(gi, c.rounds == 1 || !structural)
			} else {
				// The graph is unchanged since gi's worklist was built:
				// every match is either settled forever or parked.
				// Re-check the parked ones against the grown Eq — pure
				// literal evaluation, no matcher.
				kept := r.wl[gi][:0]
				for _, pm := range r.wl[gi] {
					if err := c.ctx.Err(); err != nil {
						return c.abort(err)
					}
					if c.enforce(gi, r.lc.co.RepOf, pm) {
						if !eq.Consistent() {
							return c.res, nil
						}
						continue
					}
					kept = append(kept, pm)
				}
				r.wl[gi] = kept
			}
			c.report()
			if r.ctxErr != nil {
				return c.abort(r.ctxErr)
			}
			if !eq.Consistent() {
				return c.res, nil
			}
		}
		structural = false
		if !c.changed {
			break
		}
	}
	c.res.Coercion = r.lc.current()
	return c.res, nil
}

// Holds evaluates one GED literal against eq under node assignment m:
// h(x̄) ⊨ l in the sense of Section 3, with equality read modulo Eq.
// It accepts the flipped intermediate forms (c = x.A) that proofs use.
func Holds(eq *Eq, l ged.Literal, m map[pattern.Var]graph.NodeID) bool {
	if l.Left.Kind == ged.OperandConst {
		l = l.Flip()
	}
	return literalHolds(eq, l, m)
}

// literalHolds evaluates one GED literal against eq under node
// assignment m.
func literalHolds(eq *Eq, l ged.Literal, m map[pattern.Var]graph.NodeID) bool {
	k, ok := l.Kind()
	if !ok {
		panic(fmt.Sprintf("chase: non-GED literal %s", l))
	}
	switch k {
	case ConstKind:
		v, ok := eq.AttrConst(m[l.Left.Var], l.Left.Attr)
		return ok && v.Equal(l.Right.Const)
	case VarKind:
		return eq.SameValue(m[l.Left.Var], l.Left.Attr, m[l.Right.Var], l.Right.Attr)
	default:
		return eq.SameNode(m[l.Left.Var], m[l.Right.Var])
	}
}

// Aliases keep the switch above readable.
const (
	ConstKind = ged.ConstLiteral
	VarKind   = ged.VarLiteral
	IDKind    = ged.IDLiteral
)

// applyLiteral extends eq with one literal, per chase-step cases (1)–(3).
func applyLiteral(eq *Eq, l ged.Literal, m map[pattern.Var]graph.NodeID, why Reason) {
	k, ok := l.Kind()
	if !ok {
		panic(fmt.Sprintf("chase: non-GED literal %s", l))
	}
	switch k {
	case ConstKind:
		eq.bindConst(m[l.Left.Var], l.Left.Attr, l.Right.Const, why)
	case VarKind:
		eq.bindEqual(m[l.Left.Var], l.Left.Attr, m[l.Right.Var], l.Right.Attr, why)
	default:
		eq.IdentifyNodes(m[l.Left.Var], m[l.Right.Var], why)
	}
}

// Deduced reports whether literal l (over base-graph nodes, resolved by
// m) can be deduced from the result's final relation, in the sense of
// Section 5.2: the equality it asserts holds in Eq.
func (r *Result) Deduced(l ged.Literal, m map[pattern.Var]graph.NodeID) bool {
	if !r.Consistent() {
		return false
	}
	return literalHolds(r.Eq, l, m)
}
