package gdc

import (
	"maps"
	"slices"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// budget bounds the chases one analysis runs, and maxDepth its nested
// case splits.
const (
	budget   = 100000
	maxDepth = 200
)

// search is the branching chase of one analysis. A branch is the list
// of facts committed on the way to it, kept as two stacks that the
// depth-first search pushes and truncates: equalities, which are the
// chase's seeds, and comparisons, which are the order layer's facts
// (each with trivial seeds x.A = x.A that generate its slots).
type search struct {
	base   *graph.Graph
	geds   ged.Set // Σ's rules the chase enforces
	others ged.Set // Σ's GDCs and GED∨s, judged on every chased branch
	sigma  ged.Set
	consts []graph.Value // every constant of Σ and φ, in the order of U
	phi    *ged.GED      // the implication target; nil for satisfiability
	vm     map[pattern.Var]graph.NodeID
	m      map[pattern.Var]graph.NodeID // scan's match, resolved to base nodes
	eqs    []chase.Seed
	cmps   []chase.Seed
	budget int
}

func newSearch(base *graph.Graph, sigma ged.Set, phi *ged.GED) *search {
	s := &search{base: base, sigma: sigma, phi: phi, m: make(map[pattern.Var]graph.NodeID), budget: budget}
	rules := sigma
	if phi != nil {
		rules = append(ged.Set{phi}, sigma...)
	}
	for _, d := range sigma {
		if d.Form() == ged.FormGED {
			s.geds = append(s.geds, d)
		} else {
			s.others = append(s.others, d)
		}
	}
	// Only a comparison ever becomes an order fact, and only then do
	// constants need their places in the order.
	if !slices.ContainsFunc(rules, func(d *ged.GED) bool { return d.Form() == ged.FormGDC }) {
		return s
	}
	for _, d := range rules {
		for _, ls := range [][]ged.Literal{d.X, d.Y} {
			for _, l := range ls {
				if l.Right.Kind == ged.OperandConst {
					s.consts = append(s.consts, l.Right.Const)
				}
			}
		}
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

// state is a chased branch: Eq and the order layer over it.
type state struct {
	res *chase.Result
	ord order
}

// run explores the branch the stacks hold. It chases and enforces
// forced consequents until a fixpoint, then splits on the first
// undecided obligation, or judges the terminal branch: True with a
// certified witness, False when every branch dies.
func (s *search) run(depth int) (Verdict, *graph.Graph) {
	if depth > maxDepth {
		return Unknown, nil
	}
	for {
		if s.budget--; s.budget < 0 {
			return Unknown, nil
		}
		st, ok := s.chase()
		if !ok {
			return False, nil
		}
		ob := s.scan(st)
		if ob.dead {
			return False, nil
		}
		if len(ob.forced) > 0 {
			for _, f := range ob.forced {
				s.push(f)
			}
			continue
		}
		split := ob.split
		if split == nil {
			var v Verdict
			var m *graph.Graph
			if v, m, split = s.terminal(st); split == nil {
				return v, m
			}
		}
		sawUnknown := false
		for _, f := range split {
			ne, nc := len(s.eqs), len(s.cmps)
			s.push(f)
			v, m := s.run(depth + 1)
			s.eqs, s.cmps = s.eqs[:ne], s.cmps[:nc]
			if v == True {
				return True, m
			}
			sawUnknown = sawUnknown || v == Unknown
		}
		if sawUnknown {
			return Unknown, nil
		}
		return False, nil
	}
}

// chase chases the branch and closes its order layer, chasing again
// with the equalities the layer forces. It reports false when the
// branch is inconsistent: a label or constant clash in Eq, or an order
// layer no assignment satisfies.
func (s *search) chase() (*state, bool) {
	for {
		res := chase.RunSeeded(s.base, s.geds, s.eqs)
		if !res.Consistent() {
			return nil, false
		}
		st := &state{res: res, ord: newOrder(res.Eq, s.consts, s.cmps)}
		forced, ok := st.ord.close()
		if !ok || len(forced) == 0 {
			return st, ok
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
func (s *search) scan(st *state) (ob obligations) {
	if s.phi != nil && s.goal(st, false) == entailed {
		return obligations{dead: true}
	}
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

// terminal judges a branch with no obligation left: it materializes the
// witness and certifies it with the validator. For implication the
// witness is a counterexample only if φ's consequent fails on it; while
// a literal of that consequent is undecided, terminal returns the split
// on it instead.
func (s *search) terminal(st *state) (Verdict, *graph.Graph, []chase.Seed) {
	if s.phi != nil {
		switch s.goal(st, true) {
		case entailed:
			return False, nil, nil
		case undecided:
			for _, l := range s.phi.Y {
				if st.judge(l, s.vm, true) == undecided {
					return 0, nil, []chase.Seed{{Literal: l.Negate(), Nodes: s.vm}, {Literal: l, Nodes: s.vm}}
				}
			}
		}
	}
	model := st.res.Materialize()
	if len(st.ord.vals) > 0 {
		vals := st.ord.assign()
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
	}
	if !reason.Satisfies(model, s.sigma) || s.phi != nil && reason.Satisfies(model, ged.Set{s.phi}) {
		return Unknown, nil, nil
	}
	return True, model, nil
}

// CheckSat decides (three-valued) whether Σ has a model: a graph
// satisfying Σ in which every pattern of Σ has a match. It searches the
// branching chase of the canonical graph G_Σ — the Σᵖ₂ structure of
// Theorems 8 and 9, with the inner ∀ discharged by the validator — and a
// consistent terminal branch materializes into a certified model.
func CheckSat(sigma ged.Set) *SatResult {
	gs, _ := sigma.CanonicalGraph()
	v, m := newSearch(gs, sigma, nil).run(0)
	return &SatResult{Satisfiable: v, Model: m}
}

// Implies decides (three-valued) whether Σ ⊨ φ: the branching chase of
// φ's canonical graph from φ's antecedent must, on every consistent
// terminal branch, satisfy φ's consequent on the identity embedding. A
// terminal branch that does not yields a certified counterexample.
func Implies(sigma ged.Set, phi *ged.GED) *ImplResult {
	gq, vm := phi.Pattern.ToGraph()
	s := newSearch(gq, sigma, phi)
	s.vm = vm
	for _, l := range phi.X {
		s.push(chase.Seed{Literal: l, Nodes: vm})
	}
	switch v, m := s.run(0); v {
	case True:
		return &ImplResult{Implied: False, Counterexample: m}
	case False:
		return &ImplResult{Implied: True}
	default:
		return &ImplResult{Implied: Unknown}
	}
}
