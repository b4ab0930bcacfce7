package axiom

import (
	"context"
	"fmt"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Prove constructs an A_GED proof of φ from Σ, following the
// completeness argument of Theorem 7:
//
//  1. GED1 yields Q[x̄](X → X ∧ X_id).
//  2. Every step of the chase of G_Q from Eq_X by Σ is replayed as a
//     GED6 application (Claim 1): the chase match is exactly the
//     homomorphism GED6 requires into (G_Q)_{Eq_X ∪ Eq_Y}.
//  3. If the chase is inconsistent, GED5 concludes φ (Claim 2 and
//     condition (1) of Theorem 4). Otherwise every literal of φ's
//     consequent is deduced from the final equivalence relation by
//     replaying its proof-forest explanation through GED2 (id
//     propagation), GED3 (symmetry) and GED4 (transitivity), and the
//     singletons are conjoined back with GED6.
//
// Prove returns an error when Σ does not imply φ.
func Prove(sigma ged.Set, phi *ged.GED) (*Proof, error) {
	return ProveCtx(context.Background(), sigma, phi, 0)
}

// ProveCtx is Prove with cooperative cancellation and an optional chase
// round bound: the underlying implication chase (the expensive part of
// proof construction) aborts when ctx is cancelled or the bound is hit.
func ProveCtx(ctx context.Context, sigma ged.Set, phi *ged.GED, maxRounds int) (*Proof, error) {
	if err := phi.Validate(); err != nil {
		return nil, err
	}
	if err := sigma.Validate(); err != nil {
		return nil, err
	}
	if err := ged.RequireGED(phi); err != nil {
		return nil, err
	}
	gq, vm := phi.Pattern.ToGraph()
	inv := make(map[graph.NodeID]pattern.Var, len(vm))
	for v, n := range vm {
		inv[n] = v
	}
	seeds := make([]chase.Seed, 0, len(phi.X))
	for _, l := range phi.X {
		seeds = append(seeds, chase.SeedOf(l, vm))
	}
	res, err := chase.RunCtx(ctx, gq, sigma, seeds, maxRounds)
	if err != nil {
		return nil, err
	}
	pr := &prover{
		sigma: sigma, phi: phi, vm: vm, inv: inv,
		res:       res,
		singleton: make(map[string]int),
		premises:  make(map[int]int),
	}
	if err := pr.run(); err != nil {
		return nil, err
	}
	return &Proof{Target: phi, Steps: pr.steps}, nil
}

type prover struct {
	sigma ged.Set
	phi   *ged.GED
	vm    map[pattern.Var]graph.NodeID
	inv   map[graph.NodeID]pattern.Var
	res   *chase.Result

	steps     []Step
	cur       int            // index of the accumulated Q(X → Y_cur) step
	singleton map[string]int // literal key → step proving Q(X → [l])
	premises  map[int]int    // Σ index → premise step
}

func (pr *prover) add(s Step) int {
	pr.steps = append(pr.steps, s)
	return len(pr.steps) - 1
}

func (pr *prover) concl(i int) *ged.GED { return pr.steps[i].Concl }

// mk builds a GED sharing φ's pattern and antecedent.
func (pr *prover) mk(y []ged.Literal) *ged.GED {
	return ged.New("", pr.phi.Pattern, pr.phi.X, y)
}

func (pr *prover) run() error {
	// (1) GED1.
	y0 := append(append([]ged.Literal{}, pr.phi.X...), xid(pr.phi.Pattern)...)
	pr.cur = pr.add(Step{Rule: RuleGED1, Concl: pr.mk(y0)})

	// Inconsistent Eq_X: GED5 immediately.
	if eq, _ := eqOf(pr.phi.Pattern, pr.phi.X); !eq.Consistent() {
		pr.add(Step{Rule: RuleGED5, Concl: pr.mk(pr.phi.Y), Prem: []int{pr.cur}})
		return nil
	}

	// (2) Replay the chase trace through GED6.
	for _, s := range pr.res.Steps {
		d := pr.sigma[s.GED]
		h := make(map[pattern.Var]pattern.Var, len(s.Match))
		for v, n := range s.Match {
			h[v] = pr.inv[n]
		}
		newY := append([]ged.Literal{}, pr.concl(pr.cur).Y...)
		for _, l := range d.Y {
			sl := substitute(l, h)
			if !litIn(sl, newY) {
				newY = append(newY, sl)
			}
		}
		pr.cur = pr.add(Step{
			Rule:  RuleGED6,
			Concl: pr.mk(newY),
			Prem:  []int{pr.cur, pr.premise(s.GED)},
			Match: h,
		})
		if eq, _ := eqOf(pr.phi.Pattern, pr.phi.X, newY); !eq.Consistent() {
			// (3a) Claim 2: the accumulated consequent is inconsistent;
			// GED5 concludes anything, in particular φ.
			pr.add(Step{Rule: RuleGED5, Concl: pr.mk(pr.phi.Y), Prem: []int{pr.cur}})
			return nil
		}
	}
	if !pr.res.Consistent() {
		return fmt.Errorf("axiom: internal: inconsistent chase not reflected in replay")
	}

	// (3b) Deduce each literal of φ's consequent.
	if len(pr.phi.Y) == 0 {
		return nil // vacuous target; Check accepts the GED1 conclusion
	}
	var parts []int
	for _, l := range pr.phi.Y {
		if !pr.res.Deduced(l, pr.vm) {
			return fmt.Errorf("axiom: Σ does not imply φ: literal %s is not deducible", l)
		}
		idx, err := pr.deriveSingleton(l)
		if err != nil {
			return err
		}
		parts = append(parts, idx)
	}
	acc := parts[0]
	for _, idx := range parts[1:] {
		acc = pr.conjoin(acc, idx)
	}
	// Ensure the final consequent is exactly set(φ.Y): conjoin handles
	// the multi-literal case; the single-literal case is already exact.
	final := pr.concl(acc)
	if !litSetEqual(final.Y, pr.phi.Y) {
		return fmt.Errorf("axiom: internal: assembled %v, want %v", final.Y, pr.phi.Y)
	}
	return nil
}

// premise returns (memoized) the RulePremise step introducing Σ[i].
func (pr *prover) premise(i int) int {
	if idx, ok := pr.premises[i]; ok {
		return idx
	}
	idx := pr.add(Step{Rule: RulePremise, Concl: pr.sigma[i], SigmaIndex: i})
	pr.premises[i] = idx
	return idx
}

// conjoin applies GED6 with the identity match to combine Q(X → Ya) and
// Q(X → Yb) into Q(X → Ya ∪ Yb).
func (pr *prover) conjoin(a, b int) int {
	h := make(map[pattern.Var]pattern.Var)
	for _, v := range pr.phi.Pattern.Vars() {
		h[v] = v
	}
	ya := pr.concl(a).Y
	newY := append([]ged.Literal{}, ya...)
	for _, l := range pr.concl(b).Y {
		if !litIn(l, newY) {
			newY = append(newY, l)
		}
	}
	return pr.add(Step{Rule: RuleGED6, Concl: pr.mk(newY), Prem: []int{a, b}, Match: h})
}

// extractSingleton produces Q(X → [l]) when l or its flip occurs in the
// accumulated consequent, via GED3 (applied once or twice).
func (pr *prover) extractSingleton(l ged.Literal) (int, error) {
	if idx, ok := pr.singleton[litKey(l)]; ok {
		return idx, nil
	}
	curY := pr.concl(pr.cur).Y
	var idx int
	switch {
	case litIn(l.Flip(), curY):
		idx = pr.add(Step{Rule: RuleGED3, Concl: pr.mk([]ged.Literal{l}), Prem: []int{pr.cur}})
	case litIn(l, curY):
		mid := pr.add(Step{Rule: RuleGED3, Concl: pr.mk([]ged.Literal{l.Flip()}), Prem: []int{pr.cur}})
		idx = pr.add(Step{Rule: RuleGED3, Concl: pr.mk([]ged.Literal{l}), Prem: []int{mid}})
	default:
		return 0, fmt.Errorf("axiom: internal: literal %s not in accumulated consequent", l)
	}
	pr.singleton[litKey(l)] = idx
	return idx, nil
}

// deriveSingleton produces Q(X → [l]) for a literal deducible from the
// final chase relation.
func (pr *prover) deriveSingleton(l ged.Literal) (int, error) {
	if idx, ok := pr.singleton[litKey(l)]; ok {
		return idx, nil
	}
	curY := pr.concl(pr.cur).Y
	if litIn(l, curY) || litIn(l.Flip(), curY) {
		return pr.extractSingleton(l)
	}
	k, ok := l.Kind()
	if !ok {
		return 0, fmt.Errorf("axiom: cannot derive non-GED literal %s", l)
	}
	var idx int
	var err error
	if k == ged.IDLiteral {
		idx, err = pr.deriveNodeEq(l.Left.Var, l.Right.Var)
	} else {
		idx, err = pr.deriveValueEq(l)
	}
	if err != nil {
		return 0, err
	}
	pr.singleton[litKey(l)] = idx
	return idx, nil
}

// chainLink is one derived equality e_i = e_{i+1} of a transitivity
// chain: the step index proving it and the literal it concludes.
type chainLink struct {
	idx int
	lit ged.Literal
}

// foldChain combines links [e0=e1], [e1=e2], ... into [e0=ek] with GED6
// conjunctions and GED4 transitivity.
func (pr *prover) foldChain(links []chainLink) (chainLink, error) {
	if len(links) == 0 {
		return chainLink{}, fmt.Errorf("axiom: internal: empty chain")
	}
	acc := links[0]
	for _, next := range links[1:] {
		if acc.lit.Right != next.lit.Left {
			return chainLink{}, fmt.Errorf("axiom: internal: broken chain %s / %s", acc.lit, next.lit)
		}
		joined := pr.conjoin(acc.idx, next.idx)
		lit := ged.Literal{Left: acc.lit.Left, Right: next.lit.Right, Op: ged.OpEq}
		idx := pr.add(Step{Rule: RuleGED4, Concl: pr.mk([]ged.Literal{lit}), Prem: []int{joined}})
		acc = chainLink{idx: idx, lit: lit}
	}
	return acc, nil
}

// deriveNodeEq produces Q(X → [u.id = v.id]) by replaying the node
// proof-forest explanation.
func (pr *prover) deriveNodeEq(u, v pattern.Var) (int, error) {
	if u == v {
		return pr.extractSingleton(ged.IDLit(u, u)) // from X_id
	}
	chain := pr.res.Eq.ExplainNodes(pr.vm[u], pr.vm[v])
	if chain == nil {
		return 0, fmt.Errorf("axiom: %s and %s are not identified", u, v)
	}
	var links []chainLink
	for _, link := range chain {
		lit := ged.IDLit(pr.inv[link.A], pr.inv[link.B])
		idx, err := pr.extractSingleton(lit)
		if err != nil {
			return 0, err
		}
		links = append(links, chainLink{idx: idx, lit: lit})
	}
	acc, err := pr.foldChain(links)
	if err != nil {
		return 0, err
	}
	want := ged.IDLit(u, v)
	if acc.lit != want {
		return 0, fmt.Errorf("axiom: internal: derived %s, want %s", acc.lit, want)
	}
	return acc.idx, nil
}

// endpointOperand renders a value-forest endpoint as a literal operand.
func (pr *prover) endpointOperand(e chase.ValueEndpoint) ged.Operand {
	if e.IsConst {
		return ged.Const(e.Const)
	}
	return ged.AttrOf(pr.inv[e.Node], e.Attr)
}

// deriveGED2 produces Q(X → [u.A = v.A]) for identified nodes nu, nv
// whose attribute A exists, by conjoining the id literal into the
// accumulated consequent and applying GED2.
func (pr *prover) deriveGED2(nu, nv graph.NodeID, a graph.Attr) (int, error) {
	u, v := pr.inv[nu], pr.inv[nv]
	lit := ged.VarLit(u, a, v, a)
	if idx, ok := pr.singleton[litKey(lit)]; ok {
		return idx, nil
	}
	idIdx, err := pr.deriveSingleton(ged.IDLit(u, v))
	if err != nil {
		return 0, err
	}
	joined := pr.conjoin(pr.cur, idIdx)
	idx := pr.add(Step{Rule: RuleGED2, Concl: pr.mk([]ged.Literal{lit}), Prem: []int{joined}})
	pr.singleton[litKey(lit)] = idx
	return idx, nil
}

// deriveValueEq produces Q(X → [l]) for a variable or constant literal
// deducible from the final relation, by bridging to the proof-forest
// anchors with GED2 and replaying the value explanation.
func (pr *prover) deriveValueEq(l ged.Literal) (int, error) {
	eq := pr.res.Eq

	// anchorFor returns the forest term for an attribute operand plus an
	// optional bridge link [op = anchor-op].
	anchorFor := func(op ged.Operand) (chase.Term, *chainLink, error) {
		n := pr.vm[op.Var]
		if t, ok := eq.SlotTermExact(n, op.Attr); ok {
			return t, nil, nil
		}
		t, owner, ok := eq.ClassSlotTerm(n, op.Attr)
		if !ok {
			return 0, nil, fmt.Errorf("axiom: %s has no attribute %s", op.Var, op.Attr)
		}
		idx, err := pr.deriveGED2(n, owner, op.Attr)
		if err != nil {
			return 0, nil, err
		}
		return t, &chainLink{idx: idx, lit: ged.VarLit(op.Var, op.Attr, pr.inv[owner], op.Attr)}, nil
	}

	var links []chainLink
	var startTerm, endTerm chase.Term
	var err error

	var startBridge, endBridge *chainLink
	startTerm, startBridge, err = anchorFor(l.Left)
	if err != nil {
		return 0, err
	}
	if l.Right.Kind == ged.OperandConst {
		t, ok := eq.ConstTermExact(l.Right.Const)
		if !ok {
			return 0, fmt.Errorf("axiom: constant %s not in the relation", l.Right.Const)
		}
		endTerm = t
	} else {
		endTerm, endBridge, err = anchorFor(l.Right)
		if err != nil {
			return 0, err
		}
	}

	if startBridge != nil {
		links = append(links, *startBridge)
	}
	for _, vl := range eq.ExplainTerms(startTerm, endTerm) {
		link, err := pr.valueLink(vl)
		if err != nil {
			return 0, err
		}
		links = append(links, link)
	}
	if endBridge != nil {
		// The bridge proves [right = anchor]; the chain needs
		// [anchor = right], i.e. its flip.
		flipped := endBridge.lit.Flip()
		idx := pr.add(Step{Rule: RuleGED3, Concl: pr.mk([]ged.Literal{flipped}), Prem: []int{endBridge.idx}})
		links = append(links, chainLink{idx: idx, lit: flipped})
	}

	if len(links) == 0 {
		// Same term on both sides: x.A = x.A. Bounce through any literal
		// mentioning the operand.
		return pr.deriveReflexive(l.Left)
	}
	acc, err := pr.foldChain(links)
	if err != nil {
		return 0, err
	}
	want := ged.Literal{Left: l.Left, Right: l.Right, Op: ged.OpEq}
	if acc.lit != want {
		return 0, fmt.Errorf("axiom: internal: derived %s, want %s", acc.lit, want)
	}
	return acc.idx, nil
}

// valueLink turns one value-forest explanation edge into a proven
// singleton [A = B].
func (pr *prover) valueLink(vl chase.ValueLink) (chainLink, error) {
	switch vl.Reason.Kind {
	case chase.ReasonIDProp:
		if vl.A.IsConst || vl.B.IsConst {
			return chainLink{}, fmt.Errorf("axiom: internal: IDProp link with constant endpoint")
		}
		idx, err := pr.deriveGED2(vl.A.Node, vl.B.Node, vl.A.Attr)
		if err != nil {
			return chainLink{}, err
		}
		return chainLink{idx: idx, lit: ged.VarLit(pr.inv[vl.A.Node], vl.A.Attr, pr.inv[vl.B.Node], vl.B.Attr)}, nil
	case chase.ReasonInitial:
		return chainLink{}, fmt.Errorf("axiom: internal: initial-attribute link on a canonical graph")
	default: // ReasonGiven, ReasonStep: the literal is textual in Y_cur.
		lit := ged.Literal{Left: pr.endpointOperand(vl.A), Right: pr.endpointOperand(vl.B), Op: ged.OpEq}
		idx, err := pr.extractSingleton(lit)
		if err != nil {
			return chainLink{}, err
		}
		return chainLink{idx: idx, lit: lit}, nil
	}
}

// deriveReflexive produces Q(X → [op = op]) by bouncing through any
// accumulated literal mentioning op.
func (pr *prover) deriveReflexive(op ged.Operand) (int, error) {
	lit := ged.Literal{Left: op, Right: op, Op: ged.OpEq}
	if idx, ok := pr.singleton[litKey(lit)]; ok {
		return idx, nil
	}
	for _, l := range pr.concl(pr.cur).Y {
		var other ged.Operand
		switch {
		case l.Left == op:
			other = l.Right
		case l.Right == op:
			other = l.Left
		default:
			continue
		}
		forward := ged.Literal{Left: op, Right: other, Op: ged.OpEq}
		fIdx, err := pr.extractSingleton(forward)
		if err != nil {
			return 0, err
		}
		back := forward.Flip()
		bIdx := pr.add(Step{Rule: RuleGED3, Concl: pr.mk([]ged.Literal{back}), Prem: []int{fIdx}})
		acc, err := pr.foldChain([]chainLink{{fIdx, forward}, {bIdx, back}})
		if err != nil {
			return 0, err
		}
		pr.singleton[litKey(lit)] = acc.idx
		return acc.idx, nil
	}
	return 0, fmt.Errorf("axiom: internal: no literal mentions %s", op)
}
