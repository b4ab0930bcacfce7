package chase

import (
	"context"
	"errors"
	"fmt"
	"sync"

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

// Coerce builds the coercion of eq on its base graph, reading only
// immutable state: edges off the snapshot frozen by NewEq, labels and
// attributes off eq's tables. It must only be called on a consistent Eq
// (G_Eq is undefined otherwise).
func Coerce(eq *Eq) *Coercion {
	if !eq.Consistent() {
		panic("chase: coercion of inconsistent Eq")
	}
	classOf, repOf, edges := eq.skeleton()
	co := graph.New()
	c := &Coercion{Graph: co, NodeOf: make(map[graph.NodeID]graph.NodeID, len(classOf)), RepOf: repOf}
	for _, r := range repOf {
		co.AddNode(eq.nodeLabel[r])
	}
	for id, cn := range classOf {
		c.NodeOf[graph.NodeID(id)] = cn
	}
	for _, e := range edges {
		co.AddEdge(e.Src, e.Label, e.Dst)
	}
	for cn, r := range repOf {
		for _, e := range eq.classAttrs[r] {
			if v, ok := eq.ClassConst(e.term); ok {
				co.SetAttr(graph.NodeID(cn), eq.attrs[e.attr], v)
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
//
// The result is Eq (Section 4.1); the graphs derived from it — Coercion,
// Quotient, Materialize — are built only when asked for, from the
// snapshot the chase froze and Eq's own tables, so mutating the chased
// graph afterwards changes none of them. Concurrent Coercion calls share
// one build, and so do concurrent Quotient calls; otherwise a result is
// read by one goroutine at a time, since Eq's readers compress its
// union–find paths.
type Result struct {
	// Eq is the final equivalence relation. When the chase is invalid it
	// holds the relation at the failing step, with its Conflict set.
	Eq *Eq
	// Steps is the chasing sequence applied.
	Steps []Step
	// Sigma is the chased dependency set.
	Sigma ged.Set

	host         host // what the last round matched on; see Quotient
	quotientOnce sync.Once
	coercion     *Coercion
	coercionOnce sync.Once
	coercionCtr  *obs.Counter // the chase observer's, often nil
}

// Consistent reports whether the chase terminated in a valid sequence.
func (r *Result) Consistent() bool { return r.Eq.Consistent() }

// Coercion returns the coercion G_Eq of the final relation, or nil when
// the chase is invalid (the paper's ⊥). It is built on the first call —
// most callers read only the verdict, Eq or Steps — and that one
// coercion is returned to every later call, from any goroutine. A chase
// cut short by cancellation or its round bound has the coercion of the
// relation it reached.
func (r *Result) Coercion() *Coercion {
	if !r.Consistent() {
		return nil
	}
	r.coercionOnce.Do(func() {
		r.coercion = Coerce(r.Eq)
		r.coercionCtr.Inc()
	})
	return r.coercion
}

// Quotient returns G_Eq without attributes as a snapshot, with the base
// graph's class representative of each of its nodes — numbered as
// Coercion().RepOf is. It is the host the chase's last round matched
// on: the frozen input itself, with the identity map, when no nodes
// were identified, otherwise graph.Snapshot.Quotient. A chase cut short
// after a round that identified nodes never matched on the quotient of
// the relation it reached; that one is built on the first call. Both
// are nil when the chase is invalid.
func (r *Result) Quotient() (*graph.Snapshot, []graph.NodeID) {
	if !r.Consistent() {
		return nil, nil
	}
	r.quotientOnce.Do(func() {
		if r.host.unions != r.Eq.nodeUnions {
			r.host = hostOf(r.Eq)
		}
	})
	return r.host.snap, r.host.repOf
}

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

// Run chases g by sigma starting from Eq0 (Theorem 1). The trace and
// final relation are returned; on an invalid sequence Eq carries the
// conflict and the result has no coercion.
func Run(g *graph.Graph, sigma ged.Set) *Result {
	return RunSeeded(g, sigma, nil)
}

// RunSeeded chases g by sigma starting from Eq0 extended by the given
// seed literals — the chase(G_Q, Eq_X, Σ) of Section 5.2. Seeds are
// applied with ReasonGiven in order; a conflicting seed set makes the
// chase invalid immediately (an inconsistent Eq_X, Section 4.1 case (b)).
// It panics with RunCtx's error on a Σ or seed that is not a GED's: the
// callers that cannot rule one out use RunCtx.
func RunSeeded(g *graph.Graph, sigma ged.Set, seeds []Seed) *Result {
	res, err := RunCtx(context.Background(), g, sigma, seeds, 0)
	if err != nil {
		panic(err)
	}
	return res
}

// RunCtx is RunSeeded with cooperative cancellation and an optional
// round bound. The chase checks ctx between rounds, between matches and
// inside the matcher's backtracking search; on cancellation the partial
// Result is returned alongside ctx's error, and while its relation is
// still consistent its Coercion and Materialize describe that relation.
// maxRounds > 0 bounds the number of fixpoint rounds (each round applies
// every GED over the current coercion); if the chase has not converged
// within the bound, ErrDepthExceeded is returned with the partial
// result. maxRounds <= 0 means unbounded — the chase always terminates
// by Theorem 1, so the bound is a resource valve, not a semantics knob.
//
// g is frozen once, and only that snapshot is read afterwards. Eq0 is
// read off it, and since every node class of Eq0 is a singleton
// (G_Eq0 ≅ G) the same snapshot is the match host until a round
// identifies nodes; the round after matches on the attribute-free
// quotient of the snapshot by Eq's node classes (see host). The
// coercion proper — a mutable graph carrying every known constant — is
// not built by the chase at all: Result.Coercion builds it on request.
//
// The chase enforces GEDs only: a GDC or GED∨ in Σ, or a seed that is
// not a GED literal, returns an error wrapping ged.ErrNotGED and no
// result.
func RunCtx(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int) (*Result, error) {
	if err := ged.RequireGED(sigma...); err != nil {
		return nil, err
	}
	for _, s := range seeds {
		if _, ok := s.Literal.Kind(); !ok {
			return nil, fmt.Errorf("%w: seed %s is not a GED literal", ged.ErrNotGED, s.Literal)
		}
	}
	c := newChaser(ctx, g, sigma, seeds, maxRounds)
	defer c.report()
	var err error
	if c.eq.Consistent() { // otherwise Eq_X is inconsistent
		err = c.run()
	}
	return c.result(), err
}

// chaser carries the state of one chase run.
type chaser struct {
	ctx       context.Context
	eq        *Eq
	res       *Result
	rules     []rule         // Σ, compiled
	host      host           // what the current round matches on
	baseBuf   []graph.NodeID // reused base-node translation scratch
	maxRounds int
	rounds    int
	// The ctx-injected observer's tallies, often nil. Rounds and
	// quotients are counted as they happen; matches and steps accumulate
	// in matches and res.Steps and are added by report, once per sweep.
	// (The result counts its coercion, if one is ever asked for.)
	roundCtr, matchCtr, stepCtr, quotientCtr *obs.Counter
	matches, reportedSteps                   int
	changed                                  bool // a step was applied this round

	// The sweeps' state: pooled build-side arenas, the matcher's abort
	// hook, and the parked worklists.
	scratch *joinScratch
	stop    func() bool
	wl      [][]pendingMatch
	// parked[gi] reports that wl[gi] holds gi's complete pending set for
	// the current host. Parking gives up past a cap — a pending set far
	// larger than the graph (unlinked components cross-multiply) costs
	// more to park and re-check than to re-enumerate, and would hold
	// O(matches) memory.
	parked  []bool
	parkCap int
	arena   []graph.NodeID // chunked backing for parked binding vectors
	ctxErr  error          // cancellation seen inside a sweep
}

// newChaser reads Eq0 off g, compiles sigma against it and applies the
// seeds, stopping at the first one that makes the relation inconsistent.
func newChaser(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int) *chaser {
	eq := NewEq(g)
	c := &chaser{ctx: ctx, eq: eq, res: &Result{Eq: eq, Sigma: sigma}, maxRounds: maxRounds}
	if o := obs.FromContext(ctx); o != nil {
		reg := o.Registry()
		c.roundCtr = reg.Counter("ged_chase_rounds_total", "chase fixpoint rounds executed")
		c.matchCtr = reg.Counter("ged_chase_matches_total", "pattern matches the chase checked a dependency's antecedent on")
		c.stepCtr = reg.Counter("ged_chase_steps_total", "chase steps applied")
		c.quotientCtr = reg.Counter("ged_chase_quotients_total", "attribute-free quotient hosts built for a chase round after node merges")
		c.res.coercionCtr = reg.Counter("ged_chase_coercions_total", "full attribute-bearing coercions G_Eq built, on request, for a chase result")
	}
	c.rules = make([]rule, len(sigma))
	slots := 0
	for gi, d := range sigma {
		c.rules[gi] = compileRule(eq, d, slots)
		slots += len(c.rules[gi].comps)
	}
	c.host = hostOf(eq) // the base snapshot: no seed has identified nodes yet
	c.host.plans = make([]*pattern.Plan, slots)
	for i, s := range seeds {
		applyLiteral(eq, s.Literal, s.Nodes, Reason{Kind: ReasonGiven, Seed: i})
		if !eq.Consistent() {
			break
		}
	}
	return c
}

// clit is one GED literal with its variables resolved to indexes of the
// pattern's variable order and its attributes to Eq's attribute ids, so
// the fixpoint loop evaluates it straight off a dense binding vector —
// no per-match map, no string hashing. Kind mirrors Literal.Kind.
type clit struct {
	kind   ged.LiteralKind
	li, ri int   // variable indexes (ri unused for const literals)
	la, ra int32 // attribute ids
	c      graph.Value
	src    ged.Literal // the original literal, for step application
}

// rule is one GED of Σ compiled for the chase: the pattern's variable
// order, both literal sets over it, and the join plan of its sweep.
type rule struct {
	vars []pattern.Var
	x, y []clit
	// comps are the pattern's connected components in order of their
	// first variable. comps[0] is streamed from the matcher (the probe
	// side); every later one is materialized and indexed on the
	// literals of x linking it to the components before it.
	comps []component
	// keyed reports that some component joins on a literal, i.e. that
	// the sweep sees only part of the cross product.
	keyed bool
}

// compileRule compiles d over eq's attribute ids, numbering the plans
// of its components from slot.
func compileRule(eq *Eq, d *ged.GED, slot int) rule {
	r := rule{vars: d.Pattern.Vars()}
	idx := make(map[pattern.Var]int, len(r.vars))
	for i, v := range r.vars {
		idx[v] = i
	}
	one := func(l ged.Literal) clit {
		k, ok := l.Kind()
		if !ok {
			panic(fmt.Sprintf("chase: non-GED literal %s", l))
		}
		cl := clit{kind: k, li: idx[l.Left.Var], src: l}
		switch k {
		case ConstKind:
			cl.la, cl.c = eq.internAttr(l.Left.Attr), l.Right.Const
		case VarKind:
			cl.la, cl.ri, cl.ra = eq.internAttr(l.Left.Attr), idx[l.Right.Var], eq.internAttr(l.Right.Attr)
		default:
			cl.ri = idx[l.Right.Var]
		}
		return cl
	}
	for _, l := range d.X {
		r.x = append(r.x, one(l))
	}
	for _, l := range d.Y {
		r.y = append(r.y, one(l))
	}
	r.split(d.Pattern, idx, slot)
	return r
}

// clitHolds evaluates one compiled literal against eq under the base
// node vector (bind translated through repOf by the caller).
func (c *chaser) clitHolds(cl *clit, base []graph.NodeID) bool {
	switch cl.kind {
	case ConstKind:
		v, ok := c.eq.attrConst(base[cl.li], cl.la)
		return ok && v.Equal(cl.c)
	case VarKind:
		return c.eq.sameValue(base[cl.li], cl.la, base[cl.ri], cl.ra)
	default:
		return c.eq.SameNode(base[cl.li], base[cl.ri])
	}
}

// result hands out the Result with the host the last round matched on
// (the host's compiled plans stay behind).
func (c *chaser) result() *Result {
	c.res.host = host{snap: c.host.snap, repOf: c.host.repOf, unions: c.host.unions}
	return c.res
}

// checkRound guards the top of each fixpoint round: a non-nil error
// (cancellation or the round bound) ends the chase with it.
func (c *chaser) checkRound() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if c.maxRounds > 0 && c.rounds >= c.maxRounds {
		return ErrDepthExceeded
	}
	c.rounds++
	c.roundCtr.Inc()
	return nil
}

// report adds the matches and steps since the last report to the
// observer's counters.
func (c *chaser) report() {
	c.matchCtr.Add(uint64(c.matches))
	c.stepCtr.Add(uint64(len(c.res.Steps) - c.reportedSteps))
	c.matches, c.reportedSteps = 0, len(c.res.Steps)
}

// enforce processes one host match of Σ[gi], given as the dense
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
	r := &c.rules[gi]
	for i := range r.x {
		if !c.clitHolds(&r.x[i], base) {
			return false
		}
	}
	for li := range r.y {
		cl := &r.y[li]
		if c.clitHolds(cl, base) {
			continue
		}
		m := make(map[pattern.Var]graph.NodeID, len(r.vars))
		for i, x := range r.vars {
			m[x] = base[i]
		}
		step := len(c.res.Steps)
		c.res.Steps = append(c.res.Steps, Step{GED: gi, Match: m, Literal: li})
		applyLiteral(c.eq, cl.src, m, Reason{Kind: ReasonStep, Step: step})
		c.changed = true
		if !c.eq.Consistent() {
			return true
		}
	}
	return true
}

// pendingMatch is one enumerated match whose antecedent did not hold
// yet, kept on the worklist as its dense host-node binding vector.
type pendingMatch []graph.NodeID

func (c *chaser) park(gi int, bind []graph.NodeID) {
	if len(c.wl[gi]) >= c.parkCap {
		c.parked[gi] = false
		c.wl[gi] = c.wl[gi][:0]
		return
	}
	if len(c.arena)+len(bind) > cap(c.arena) {
		c.arena = make([]graph.NodeID, 0, 16*1024)
	}
	lo := len(c.arena)
	c.arena = append(c.arena, bind...)
	c.wl[gi] = append(c.wl[gi], pendingMatch(c.arena[lo:len(c.arena):len(c.arena)]))
}

// run is the fixpoint loop. It exploits two monotonicity facts:
//
//   - the host changes between rounds only when the previous round
//     merged node classes; a round after pure attribute-bind steps
//     re-checks its parked worklist by literal evaluation alone — no
//     quotient, no match enumeration at all;
//   - Eq only grows, so a match that was enforced (or already
//     satisfied) is settled forever; only matches whose antecedent did
//     not hold yet are parked.
//
// After a round that merged node classes (or seeds that did), the next
// one re-quotients the base snapshot and re-sweeps the matches over it:
// a merge round's new-match set is of the same order as the full match
// set, so the O(|G|) quotient is the honest floor, at every graph size.
//
// It returns the error that cut the chase short, if any.
func (c *chaser) run() error {
	eq := c.eq
	c.scratch = joinPool.Get().(*joinScratch)
	defer joinPool.Put(c.scratch)
	c.stop = func() bool { return c.ctx.Err() != nil }
	c.wl = make([][]pendingMatch, len(c.rules))
	c.parked = make([]bool, len(c.rules))
	c.parkCap = 64 + 8*c.host.snap.NumNodes()

	structural := true // the host changed since the last sweep
	for {
		if err := c.checkRound(); err != nil {
			return err
		}
		if c.host.unions != eq.nodeUnions {
			c.requotient()
			structural = true
		}
		c.changed = false

		for gi := range c.rules {
			if structural || !c.parked[gi] {
				// Park on the opening round and on the forced re-sweep
				// at a merge→bind transition — the rounds a worklist
				// will serve. Structural (merge) rounds rebuild the
				// matching space anyway, so parking there would never
				// pay for itself.
				c.fullSweep(gi, c.rounds == 1 || !structural)
			} else {
				// The host is unchanged since gi's worklist was built:
				// every match is either settled forever or parked.
				// Re-check the parked ones against the grown Eq — pure
				// literal evaluation, no matcher.
				kept := c.wl[gi][:0]
				for _, pm := range c.wl[gi] {
					if err := c.ctx.Err(); err != nil {
						return err
					}
					if c.enforce(gi, c.host.repOf, pm) {
						if !eq.Consistent() {
							return nil
						}
						continue
					}
					kept = append(kept, pm)
				}
				c.wl[gi] = kept
			}
			c.report()
			if c.ctxErr != nil {
				return c.ctxErr
			}
			if !eq.Consistent() {
				return nil
			}
		}
		structural = false
		if !c.changed {
			return nil
		}
	}
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
