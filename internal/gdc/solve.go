package gdc

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// Verdict is a three-valued answer: the solver certifies every True with
// a concrete witness, returns False only when the branch space is
// exhausted, and Unknown when a resource cap is hit or a heuristic value
// assignment cannot be completed.
type Verdict uint8

const (
	// False: no witness exists in the searched space.
	False Verdict = iota
	// True: a certified witness was found.
	True
	// Unknown: the search was cut off.
	Unknown
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// SatResult reports a satisfiability analysis.
type SatResult struct {
	// Satisfiable is the verdict; True is certified by Model.
	Satisfiable Verdict
	// Model is a concrete model of Σ when Satisfiable is True.
	Model *graph.Graph
	// Err names a rule the solver cannot decide; Satisfiable is then
	// Unknown.
	Err error
}

// ImplResult reports an implication analysis.
type ImplResult struct {
	// Implied is the verdict; False is certified by Counterexample. For
	// a GDC, True means no counterexample exists over quotients of φ's
	// canonical graph (exact for the equality-only fragment, by
	// Theorem 4).
	Implied Verdict
	// Counterexample satisfies Σ but violates φ when Implied is False.
	Counterexample *graph.Graph
	// Err names a rule the solver cannot decide; Implied is then
	// Unknown.
	Err error
}

// defaultBudget bounds the number of propagate/branch operations.
const defaultBudget = 200000

// state is one branch of the solver: a partition of the canonical
// graph's nodes plus an attribute-constraint store.
type state struct {
	g          *graph.Graph
	nodeParent []graph.NodeID
	labels     map[graph.NodeID]graph.Label
	antiMerge  [][2]graph.NodeID
	st         *store
}

func newState(g *graph.Graph) *state {
	s := &state{
		g:          g,
		nodeParent: make([]graph.NodeID, g.NumNodes()),
		labels:     make(map[graph.NodeID]graph.Label, g.NumNodes()),
		st:         newStore(),
	}
	for _, id := range g.Nodes() {
		s.nodeParent[id] = id
		s.labels[id] = g.Label(id)
	}
	return s
}

func (s *state) clone() *state {
	c := &state{
		g:          s.g,
		nodeParent: append([]graph.NodeID{}, s.nodeParent...),
		labels:     make(map[graph.NodeID]graph.Label, len(s.labels)),
		antiMerge:  append([][2]graph.NodeID{}, s.antiMerge...),
		st:         s.st.clone(),
	}
	for k, v := range s.labels {
		c.labels[k] = v
	}
	return c
}

func (s *state) nodeRoot(x graph.NodeID) graph.NodeID {
	for s.nodeParent[x] != x {
		s.nodeParent[x] = s.nodeParent[s.nodeParent[x]]
		x = s.nodeParent[x]
	}
	return x
}

// mergeNodes identifies two node classes; false on label conflict or an
// anti-merge constraint.
func (s *state) mergeNodes(a, b graph.NodeID) bool {
	ra, rb := s.nodeRoot(a), s.nodeRoot(b)
	if ra == rb {
		return true
	}
	la, lb := s.labels[ra], s.labels[rb]
	if !graph.LabelsCompatible(la, lb) {
		return false
	}
	for _, am := range s.antiMerge {
		if (s.nodeRoot(am[0]) == ra && s.nodeRoot(am[1]) == rb) ||
			(s.nodeRoot(am[0]) == rb && s.nodeRoot(am[1]) == ra) {
			return false
		}
	}
	s.nodeParent[rb] = ra
	s.labels[ra] = graph.ResolveLabels(la, lb)
	delete(s.labels, rb)
	// Migrate rb's slots onto ra, unioning value terms (closure rule (d)).
	for _, sl := range sortedSlots(s.st) {
		if sl.node != rb {
			continue
		}
		t2 := s.st.slotOf[sl]
		target := slot{node: ra, attr: sl.attr}
		if t1, ok := s.st.slotOf[target]; ok {
			if !s.st.union(t1, t2) {
				return false
			}
		} else {
			s.st.slotOf[target] = t2
		}
		delete(s.st.slotOf, sl)
	}
	return true
}

func sortedSlots(st *store) []slot {
	out := slices.Collect(maps.Keys(st.slotOf))
	// Deterministic order.
	slices.SortFunc(out, func(a, b slot) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.attr, b.attr))
	})
	return out
}

// slotTerm interns the slot of attribute a on x's class.
func (s *state) slotTerm(x graph.NodeID, a graph.Attr) int {
	return s.st.slotTerm(slot{node: s.nodeRoot(x), attr: a})
}

// hasSlot reports whether x's class carries attribute a in the store.
func (s *state) hasSlot(x graph.NodeID, a graph.Attr) (int, bool) {
	return s.st.hasSlot(slot{node: s.nodeRoot(x), attr: a})
}

// quotient builds the current quotient graph for pattern matching.
func (s *state) quotient() (*graph.Graph, map[graph.NodeID]graph.NodeID, []graph.NodeID) {
	q := graph.New()
	nodeOf := make(map[graph.NodeID]graph.NodeID, s.g.NumNodes())
	var repOf []graph.NodeID
	for _, id := range s.g.Nodes() {
		r := s.nodeRoot(id)
		if qn, ok := nodeOf[r]; ok {
			nodeOf[id] = qn
			continue
		}
		qn := q.AddNode(s.labels[r])
		nodeOf[r] = qn
		nodeOf[id] = qn
		repOf = append(repOf, r)
	}
	for _, e := range s.g.Edges() {
		q.AddEdge(nodeOf[e.Src], e.Label, nodeOf[e.Dst])
	}
	return q, nodeOf, repOf
}

// eval judges a literal on the state. In an antecedent (generate
// false) a missing slot refutes it, models being attribute-minimal; in
// a consequent it is unknown — enforcement will generate it.
func (s *state) eval(l ged.Literal, m map[pattern.Var]graph.NodeID, generate bool) status {
	if l.Left.Kind == ged.OperandID {
		if s.nodeRoot(m[l.Left.Var]) == s.nodeRoot(m[l.Right.Var]) {
			return stEntailed
		}
		if generate {
			return stUnknown
		}
		return stRefuted // a later merge yields a new match to re-check
	}
	missing := stRefuted
	if generate {
		missing = stUnknown
	}
	t1, ok := s.hasSlot(m[l.Left.Var], l.Left.Attr)
	if !ok {
		return missing
	}
	if l.Right.Kind == ged.OperandConst {
		return s.st.cmpStatus(t1, l.Op, s.st.constTerm(l.Right.Const))
	}
	t2, ok := s.hasSlot(m[l.Right.Var], l.Right.Attr)
	if !ok {
		return missing
	}
	return s.st.cmpStatus(t1, l.Op, t2)
}

// enforceLit asserts a literal, generating slots as needed. It reports
// whether the state changed and whether the assertion is conflict-free.
func (s *state) enforceLit(l ged.Literal, m map[pattern.Var]graph.NodeID) (changed, ok bool) {
	if l.Left.Kind == ged.OperandID {
		ra, rb := s.nodeRoot(m[l.Left.Var]), s.nodeRoot(m[l.Right.Var])
		if ra == rb {
			return false, true
		}
		return true, s.mergeNodes(m[l.Left.Var], m[l.Right.Var])
	}
	created := false
	if _, ok := s.hasSlot(m[l.Left.Var], l.Left.Attr); !ok {
		created = true
	}
	t1 := s.slotTerm(m[l.Left.Var], l.Left.Attr)
	var t2 int
	if l.Right.Kind == ged.OperandConst {
		t2 = s.st.constTerm(l.Right.Const)
	} else {
		if _, ok := s.hasSlot(m[l.Right.Var], l.Right.Attr); !ok {
			created = true
		}
		t2 = s.slotTerm(m[l.Right.Var], l.Right.Attr)
	}
	changed, ok = s.st.addLiteralConstraint(t1, l.Op, t2)
	return changed || created, ok
}

// propagate closes the state under Σ: every match with a fully-entailed
// antecedent gets its consequent enforced. It returns ok=false on
// conflict, and complete=false when the budget ran out first.
func (s *state) propagate(sigma ged.Set, budget *int) (ok, complete bool) {
	for {
		if *budget <= 0 {
			return true, false
		}
		*budget--
		q, _, repOf := s.quotient()
		snap := q.Freeze()
		changed := false
		conflict := false
		for _, d := range sigma {
			pattern.ForEachMatch(d.Pattern, snap, func(m pattern.Match) bool {
				base := make(map[pattern.Var]graph.NodeID, len(m))
				for v, qn := range m {
					base[v] = repOf[qn]
				}
				for _, l := range d.X {
					if s.eval(l, base, false) != stEntailed {
						return true
					}
				}
				for _, l := range d.Y {
					switch s.eval(l, base, true) {
					case stEntailed:
					case stRefuted:
						conflict = true
						return false
					default:
						ch, lok := s.enforceLit(l, base)
						if !lok {
							conflict = true
							return false
						}
						changed = changed || ch
					}
				}
				return true
			})
			if conflict {
				return false, true
			}
		}
		if !s.st.feasible() {
			return false, true
		}
		if !changed {
			return true, true
		}
	}
}

// materialize builds a concrete candidate graph: the quotient with
// store-assigned attribute values and freshened wildcard labels.
func (s *state) materialize() (*graph.Graph, map[graph.NodeID]graph.NodeID, error) {
	if !s.st.feasible() {
		return nil, nil, fmt.Errorf("gdc: materializing an infeasible store")
	}
	assign := s.st.assign()
	q, nodeOf, repOf := s.quotient()
	out := graph.New()
	fresh := 0
	for qn := range repOf {
		l := q.Label(graph.NodeID(qn))
		if l == graph.Wildcard {
			l = graph.Label(fmt.Sprintf("_fresh%d", fresh))
			fresh++
		}
		out.AddNode(l)
	}
	for _, e := range q.Edges() {
		l := e.Label
		if l == graph.Wildcard {
			l = graph.Label(fmt.Sprintf("_freshe%d", fresh))
			fresh++
		}
		out.AddEdge(e.Src, l, e.Dst)
	}
	for _, sl := range sortedSlots(s.st) {
		t := s.st.slotOf[sl]
		v, ok := assign[s.st.find(t)]
		if !ok {
			return nil, nil, fmt.Errorf("gdc: unassigned term")
		}
		out.SetAttr(nodeOf[sl.node], sl.attr, v)
	}
	return out, nodeOf, nil
}

// signature fingerprints a state for progress detection.
func (s *state) signature() string {
	q, _, _ := s.quotient()
	return fmt.Sprintf("n%d|t%d|o%d|d%d|s%d",
		q.NumNodes(), len(s.st.parent), len(s.st.orders), len(s.st.diseqs), len(s.st.slotOf))
}

// CheckSat decides (with a three-valued verdict) whether Σ has a model:
// a graph satisfying Σ in which every pattern of Σ has a match. The
// search explores quotients of the canonical graph G_Σ with normalized
// attribute values — mirroring the small-model property behind
// Theorem 8 — and certifies positive answers with the validator.
func CheckSat(sigma ged.Set) *SatResult {
	if err := decidable(sigma...); err != nil {
		return &SatResult{Satisfiable: Unknown, Err: err}
	}
	gs, _ := sigma.CanonicalGraph()
	budget := defaultBudget
	v, model := solve(newState(gs), sigma, &budget, nil, 0)
	return &SatResult{Satisfiable: v, Model: model}
}

// solve is the recursive propagate-and-branch core. certify, when
// non-nil, adds an extra acceptance predicate on candidate models, read
// through the frozen model (used by the implication counterexample
// search).
func solve(s *state, sigma ged.Set, budget *int, certify func(*graph.Snapshot, *state) bool, depth int) (Verdict, *graph.Graph) {
	if *budget <= 0 || depth > 40 {
		return Unknown, nil
	}
	*budget--
	ok, complete := s.propagate(sigma, budget)
	if !ok {
		return False, nil
	}
	if !complete || *budget <= 0 {
		return Unknown, nil
	}
	model, _, err := s.materialize()
	if err != nil {
		return Unknown, nil
	}
	frozen := model.Freeze()
	extraOK := certify == nil || certify(frozen, s)
	vs, _ := reason.NewValidatorOn(frozen, sigma).RunCtx(context.Background(), 1)
	if len(vs) == 0 && extraOK {
		return True, model
	}
	if len(vs) == 0 && !extraOK {
		// Σ is satisfied but the extra predicate failed; there is no
		// violation to branch on — this branch cannot be refined further.
		return False, nil
	}
	// Branch on the first violation.
	viol := vs[0]
	base := matchToReps(s, viol.Match)
	sawUnknown := false
	// Branch A: some unknown antecedent literal is false.
	for _, l := range viol.GED.X {
		if s.eval(l, base, false) != stUnknown {
			continue
		}
		b := s.clone()
		if _, lok := b.enforceLit(l.Negate(), base); !lok {
			continue
		}
		v, m := solve(b, sigma, budget, certify, depth+1)
		switch v {
		case True:
			return True, m
		case Unknown:
			sawUnknown = true
		}
	}
	// Branch B: the antecedent holds, so the consequent must too.
	b := s.clone()
	bOK := true
	for _, l := range viol.GED.X {
		if b.eval(l, base, false) == stUnknown {
			if _, lok := b.enforceLit(l, base); !lok {
				bOK = false
				break
			}
		}
	}
	if bOK {
		for _, l := range viol.GED.Y {
			if b.eval(l, base, true) != stEntailed {
				if _, lok := b.enforceLit(l, base); !lok {
					bOK = false
					break
				}
			}
		}
	}
	if bOK {
		if b.signature() == s.signature() {
			// No progress: the violation is a value-assignment artifact
			// the heuristic cannot resolve.
			sawUnknown = true
		} else {
			v, m := solve(b, sigma, budget, certify, depth+1)
			switch v {
			case True:
				return True, m
			case Unknown:
				sawUnknown = true
			}
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return False, nil
}

// matchToReps resolves a quotient-graph match back to base class reps.
// The violation match is over the materialized graph, whose node ids
// coincide with quotient node ids.
func matchToReps(s *state, m pattern.Match) map[pattern.Var]graph.NodeID {
	_, _, repOf := s.quotient()
	out := make(map[pattern.Var]graph.NodeID, len(m))
	for v, qn := range m {
		out[v] = repOf[qn]
	}
	return out
}

// Implies decides (three-valued) whether Σ ⊨ φ by searching for a
// counterexample: a quotient of φ's canonical graph, closed under Σ,
// whose identity embedding of Q satisfies X but falsifies some literal
// of Y. For the equality-only fragment this search space is exactly the
// chase's and the answer is exact (Theorem 4); with inequalities it
// mirrors the Πᵖ₂ structure of Theorem 8 over normalized small models.
func Implies(sigma ged.Set, phi *ged.GED) *ImplResult {
	if err := decidable(append(ged.Set{phi}, sigma...)...); err != nil {
		return &ImplResult{Implied: Unknown, Err: err}
	}
	gq, vm := phi.Pattern.ToGraph()
	budget := defaultBudget

	// Seed state: φ's antecedent holds on the identity embedding.
	s0 := newState(gq)
	for _, l := range phi.X {
		if _, ok := s0.enforceLit(l, resolveVars(l, vm, s0)); !ok {
			// X is unsatisfiable on Q: φ holds vacuously.
			return &ImplResult{Implied: True}
		}
	}
	if !s0.st.feasible() {
		return &ImplResult{Implied: True}
	}

	// certifyFor accepts a candidate model whose identity embedding of
	// φ's pattern satisfies X and fails a literal of y, judged by the
	// validator's compiled rule.
	certifyFor := func(y []ged.Literal) func(*graph.Snapshot, *state) bool {
		rule := ged.New(phi.Name, phi.Pattern, phi.X, y)
		return func(model *graph.Snapshot, st *state) bool {
			return reason.CompileRule(rule, model).CheckMatch(model, identityBinding(st, phi.Pattern, vm)) != nil
		}
	}

	sawUnknown := false
	// Branch per consequent literal: assert its negation.
	for i := range phi.Y {
		l := phi.Y[i]
		b := s0.clone()
		if l.Left.Kind == ged.OperandID {
			if b.nodeRoot(vm[l.Left.Var]) == b.nodeRoot(vm[l.Right.Var]) {
				continue // cannot be falsified in this quotient
			}
			b.antiMerge = append(b.antiMerge, [2]graph.NodeID{vm[l.Left.Var], vm[l.Right.Var]})
		} else if _, ok := b.enforceLit(l.Negate(), resolveVars(l, vm, b)); !ok {
			continue
		}
		v, m := solve(b, sigma, &budget, certifyFor([]ged.Literal{l}), 0)
		switch v {
		case True:
			return &ImplResult{Implied: False, Counterexample: m}
		case Unknown:
			sawUnknown = true
		}
	}
	// Extra attempt: attribute minimality alone may falsify Y (an
	// attribute mentioned only in Y never comes into existence).
	v, m := solve(s0.clone(), sigma, &budget, certifyFor(phi.Y), 0)
	switch v {
	case True:
		return &ImplResult{Implied: False, Counterexample: m}
	case Unknown:
		sawUnknown = true
	}
	if sawUnknown {
		return &ImplResult{Implied: Unknown}
	}
	return &ImplResult{Implied: True}
}

// resolveVars maps a literal's variables to class reps.
func resolveVars(l ged.Literal, vm map[pattern.Var]graph.NodeID, s *state) map[pattern.Var]graph.NodeID {
	out := make(map[pattern.Var]graph.NodeID)
	for _, v := range l.Vars() {
		out[v] = s.nodeRoot(vm[v])
	}
	return out
}

// identityBinding is the candidate model's binding vector of q's
// variables (in q.Vars() order) through vm and the quotient.
func identityBinding(s *state, q *pattern.Pattern, vm map[pattern.Var]graph.NodeID) []graph.NodeID {
	_, nodeOf, _ := s.quotient()
	bind := make([]graph.NodeID, 0, len(vm))
	for _, v := range q.Vars() {
		bind = append(bind, nodeOf[vm[v]])
	}
	return bind
}
