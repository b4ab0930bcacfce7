package gdc

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// search is the branching chase of one analysis. A branch is the list
// of facts committed on the way to it, kept as two stacks that the
// depth-first search pushes and truncates: equalities, which are the
// chase's seeds, and comparisons, which are the order layer's facts
// (each with trivial seeds x.A = x.A that generate its slots).
type search struct {
	ctx       context.Context
	maxRounds int
	base      *graph.Graph
	geds      ged.Set // Σ's rules the chase enforces
	others    ged.Set // Σ's GDCs and GED∨s, judged on every chased branch
	sigma     ged.Set
	consts    []graph.Value // every constant of Σ and φ, in the order of U
	phi       *ged.GED      // the implication target; nil for satisfiability
	vm        map[pattern.Var]graph.NodeID
	m         map[pattern.Var]graph.NodeID // scan's match, resolved to base nodes
	eqs       []chase.Seed
	cmps      []chase.Seed

	stats    Stats
	conflict *chase.Conflict // the failed chase's clash, while no split has happened
	goalMet  bool            // some branch closed because it entails φ's consequent
	gap      bool            // some terminal branch had no witness (ErrNoWitness)
}

func newSearch(ctx context.Context, base *graph.Graph, sigma ged.Set, phi *ged.GED, maxRounds int) search {
	s := search{ctx: ctx, maxRounds: maxRounds, base: base, sigma: sigma, phi: phi, geds: sigma}
	hasGDC := phi != nil && phi.Form() == ged.FormGDC
	for _, d := range sigma {
		if f := d.Form(); f != ged.FormGED {
			s.others = append(s.others, d)
			hasGDC = hasGDC || f == ged.FormGDC
		}
	}
	if len(s.others) > 0 {
		s.geds = nil
		for _, d := range sigma {
			if d.Form() == ged.FormGED {
				s.geds = append(s.geds, d)
			}
		}
		s.m = make(map[pattern.Var]graph.NodeID)
	}
	// Only a comparison ever becomes an order fact, and only then do
	// constants need their places in the order.
	if !hasGDC {
		return s
	}
	addConsts := func(d *ged.GED) {
		for _, ls := range [][]ged.Literal{d.X, d.Y} {
			for _, l := range ls {
				if l.Right.Kind == ged.OperandConst {
					s.consts = append(s.consts, l.Right.Const)
				}
			}
		}
	}
	if phi != nil {
		addConsts(phi)
	}
	for _, d := range sigma {
		addConsts(d)
	}
	slices.SortFunc(s.consts, graph.Value.Compare)
	s.consts = slices.CompactFunc(s.consts, graph.Value.Equal)
	return s
}

// push commits a fact to the branch.
func (s *search) push(f chase.Seed) {
	l := f.Literal
	if l.Op == ged.OpEq {
		s.eqs = append(s.eqs, f)
		return
	}
	s.cmps = append(s.cmps, f)
	for _, o := range []ged.Operand{l.Left, l.Right} {
		if o.Kind == ged.OperandAttr {
			s.eqs = append(s.eqs, chase.Seed{Literal: ged.VarLit(o.Var, o.Attr, o.Var, o.Attr), Nodes: f.Nodes})
		}
	}
}

// state is a chased branch: Eq and the order layer over it, and the
// certified witness once a terminal branch has built one. The zero
// state, with no chase, stands for no branch: an inconsistent one, or
// no witness. States travel by value, so a search allocates none.
type state struct {
	res   *chase.Result
	ord   order
	model *graph.Graph
}

// result runs the search from the root: the terminal state of a witness
// branch, or the zero state when every branch dies.
func (s *search) result() (state, error) {
	st, err := s.run(0, nil)
	if st.res == nil && err == nil && s.gap {
		err = ErrNoWitness
	}
	return st, err
}

// run explores the branch the stacks hold; pushed are the facts pushed
// onto it since its parent was chased. It chases and enforces forced
// consequents until a fixpoint, then splits on the first undecided
// obligation, or judges the terminal branch. It returns the terminal
// state of a witness branch, or the zero state when every branch below
// dies.
func (s *search) run(depth int, pushed []chase.Seed) (state, error) {
	s.stats.Depth = max(s.stats.Depth, depth)
	for {
		st, err := s.chase()
		if st.res == nil {
			return state{}, err
		}
		if err := expect(&st, pushed, entailed); err != nil {
			return state{}, err
		}
		ob := s.scan(&st)
		if ob.dead {
			return state{}, nil
		}
		if len(ob.forced) > 0 {
			if err := expect(&st, ob.forced, undecided); err != nil {
				return state{}, err
			}
			for _, f := range ob.forced {
				s.push(f)
			}
			pushed = ob.forced
			continue
		}
		split := ob.split
		if split == nil {
			var done bool
			if done, split, err = s.terminal(&st); split == nil {
				if done {
					return st, err
				}
				return state{}, err
			}
		}
		if err := expect(&st, split, undecided); err != nil {
			return state{}, err
		}
		for i, f := range split {
			ne, nc := len(s.eqs), len(s.cmps)
			s.push(f)
			s.stats.Branches++
			w, err := s.run(depth+1, split[i:i+1])
			s.eqs, s.cmps = s.eqs[:ne], s.cmps[:nc]
			if w.res != nil || err != nil {
				return w, err
			}
		}
		return state{}, nil
	}
}

// expect asserts the invariant the search's termination rests on: every
// fact is undecided on the branch it is pushed onto, and entailed once
// that branch is chased again.
func expect(st *state, facts []chase.Seed, want status) error {
	for _, f := range facts {
		if got := st.judge(f.Literal, f.Nodes, false); got != want {
			return fmt.Errorf("%w: pushed fact %s is %s, want %s", errInvariant, f.Literal, got, want)
		}
	}
	return nil
}

// chase chases the branch and closes its order layer, chasing again
// with the equalities the layer forces. It returns the zero state when
// the branch is inconsistent: a label or constant clash in Eq, or an
// order layer no assignment satisfies; the error is ctx's or the chase
// bound's.
func (s *search) chase() (state, error) {
	for {
		if err := s.ctx.Err(); err != nil {
			return state{}, err
		}
		s.stats.Chases++
		res, err := chase.RunCtx(s.ctx, s.base, s.geds, s.eqs, s.maxRounds)
		if err != nil {
			return state{}, err
		}
		if !res.Consistent() {
			if s.stats.Branches == 0 {
				s.conflict = res.Eq.Conflict()
			}
			return state{}, nil
		}
		st := state{res: res, ord: newOrder(res.Eq, s.consts, s.cmps)}
		forced, ok := st.ord.close()
		if !ok {
			return state{}, nil
		}
		if len(forced) == 0 {
			return st, nil
		}
		s.eqs = append(s.eqs, forced...)
	}
}

// obligations is what a scan finds on a branch.
type obligations struct {
	forced, split []chase.Seed
	dead          bool
}

// scan judges every match of Σ's GDCs and GED∨s on the branch. A match
// whose antecedent is entailed kills the branch (dead) when its
// consequent is refuted, and otherwise forces its open conjuncts, or
// its one open disjunct. A match with an undecided antecedent literal,
// or with several open disjuncts, is a split; the scan stops at the
// first one unless a forced consequent came first, and then collects
// only forced ones. The implication target is dead once its consequent
// is entailed.
func (s *search) scan(st *state) obligations {
	if s.phi != nil && s.goal(st, false) == entailed {
		s.goalMet = true
		return obligations{dead: true}
	}
	if len(s.others) == 0 {
		return obligations{}
	}
	return s.scanOthers(*st)
}

// scanOthers is scan's pass over the matches of Σ's GDCs and GED∨s. It
// takes the branch by value: the match callback captures it, and a
// pointer would move every branch of a search to the heap.
func (s *search) scanOthers(st state) (ob obligations) {
	snap, repOf := st.res.Quotient()
	m := s.m
	for _, d := range s.others {
		pattern.ForEachMatch(d.Pattern, snap, func(qm pattern.Match) bool {
			for v, cn := range qm {
				m[v] = repOf[cn]
			}
			for _, l := range d.X {
				switch st.judge(l, m, true) {
				case refuted:
					return true
				case undecided:
					if ob.split == nil {
						nodes := maps.Clone(m)
						ob.split = []chase.Seed{{Literal: l.Negate(), Nodes: nodes}, {Literal: l, Nodes: nodes}}
					}
					return len(ob.forced) > 0
				}
			}
			open := 0
			for _, l := range d.Y {
				switch st.judge(l, m, false) {
				case entailed:
					if d.Disjunctive {
						return true
					}
				case refuted:
					if !d.Disjunctive {
						ob.dead = true
						return false
					}
				default:
					open++
				}
			}
			if open == 0 {
				ob.dead = d.Disjunctive
				return !ob.dead
			}
			lits := make([]chase.Seed, 0, open)
			nodes := maps.Clone(m)
			for _, l := range d.Y {
				if st.judge(l, m, false) == undecided {
					lits = append(lits, chase.Seed{Literal: l, Nodes: nodes})
				}
			}
			if d.Disjunctive && open > 1 {
				if ob.split == nil {
					ob.split = lits
				}
				return len(ob.forced) > 0
			}
			ob.forced = append(ob.forced, lits...)
			return true
		})
		if ob.dead || ob.split != nil && len(ob.forced) == 0 {
			break
		}
	}
	return ob
}

// judge is l's status on the branch under the match m. In an antecedent
// (final) it is the literal's truth on the witness the branch would
// materialize as it stands, wherever the layer leaves that fixed: there
// a missing attribute, distinct node classes and distinct value classes
// refute an equality. Equalities are never split on, as in the chase:
// making one true only adds obligations. In a consequent each of these
// is undecided, since enforcing the literal generates the attribute or
// merges the classes.
func (st *state) judge(l ged.Literal, m map[pattern.Var]graph.NodeID, final bool) status {
	missing := undecided
	if final {
		missing = refuted
	}
	if l.Left.Kind == ged.OperandID {
		if st.res.Eq.SameNode(m[l.Left.Var], m[l.Right.Var]) {
			return entailed
		}
		return missing
	}
	a, ok := st.ord.slot(m[l.Left.Var], l.Left.Attr)
	b := value{c: l.Right.Const, isConst: true}
	if l.Right.Kind == ged.OperandAttr {
		var okb bool
		b, okb = st.ord.slot(m[l.Right.Var], l.Right.Attr)
		ok = ok && okb
	}
	if !ok {
		return missing
	}
	if v := st.ord.cmp(a, l.Op, b); v != undecided || l.Op != ged.OpEq {
		return v
	}
	return missing
}

// goal judges φ's consequent on the identity embedding: entailed when
// it holds on every refinement of the branch (its conjuncts all, or a
// disjunct, entailed), refuted when some refuted conjunct, or every
// disjunct refuted, falsifies it; final is judge's.
func (s *search) goal(st *state, final bool) status {
	neutral := truth(!s.phi.Disjunctive) // what every literal must be to decide nothing
	out := neutral
	for _, l := range s.phi.Y {
		switch v := st.judge(l, s.vm, final); v {
		case neutral:
		case undecided:
			out = undecided
		default:
			return v
		}
	}
	return out
}

// terminal judges a branch with no obligation left. For implication
// the branch is a counterexample only if φ's consequent fails on it;
// while a literal of that consequent is undecided, terminal returns the
// split on it instead. A witness branch reports done. Without GDCs and
// GED∨s in Σ and without order facts the chase is exact (Theorems 2
// and 4), and its witness is built on request; otherwise terminal
// builds it and certifies it with the validator. A branch that yields
// no witness value (ErrNoWitness) is set aside as a gap.
func (s *search) terminal(st *state) (done bool, split []chase.Seed, err error) {
	if s.phi != nil {
		switch s.goal(st, true) {
		case entailed:
			s.goalMet = true
			return false, nil, nil
		case undecided:
			for _, l := range s.phi.Y {
				if st.judge(l, s.vm, true) == undecided {
					return false, []chase.Seed{{Literal: l.Negate(), Nodes: s.vm}, {Literal: l, Nodes: s.vm}}, nil
				}
			}
		}
	}
	if len(s.others) == 0 && len(st.ord.vals) == 0 {
		return true, nil, nil
	}
	model, err := st.materialize()
	if err != nil {
		s.gap = true
		return false, nil, nil
	}
	if !reason.Satisfies(model, s.sigma) || s.phi != nil && reason.Satisfies(model, ged.Set{s.phi}) {
		return false, nil, fmt.Errorf("%w: the witness of a terminal branch fails certification", errInvariant)
	}
	st.model = model
	return true, nil, nil
}

// materialize builds the branch's witness: the chase's model with the
// order layer's values assigned to the classes it orders.
func (st *state) materialize() (*graph.Graph, error) {
	model := st.res.Materialize()
	if len(st.ord.vals) == 0 {
		return model, nil
	}
	vals, ok := st.ord.assign()
	if !ok {
		return nil, ErrNoWitness
	}
	eq := st.res.Eq
	_, repOf := st.res.Quotient()
	for cn, rep := range repOf {
		for _, a := range eq.ClassAttrs(rep) {
			t, _ := eq.SlotTerm(rep, a)
			if v, ok := vals[t]; ok {
				model.SetAttr(graph.NodeID(cn), a, v)
			}
		}
	}
	return model, nil
}
