package axiom

import (
	"fmt"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Check verifies that p is a legal A_GED proof of p.Target from sigma:
// every step must be justified by its rule, and the final step must
// conclude the target (up to literal-set equality; a target with empty Y
// is accepted against any conclusion sharing its pattern and antecedent,
// since Q[x̄](X → ∅) is vacuous). A nil error means Σ ⊢ φ. A_GED
// derives GEDs from GEDs: a GDC or GED∨ target, premise or step
// conclusion is an error wrapping ged.ErrNotGED.
func Check(sigma ged.Set, p *Proof) error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("axiom: empty proof")
	}
	if err := ged.RequireGED(append(ged.Set{p.Target}, sigma...)...); err != nil {
		return err
	}
	for i := range p.Steps {
		if err := checkStep(sigma, p, i); err != nil {
			return fmt.Errorf("axiom: step %d (%s): %w", i+1, p.Steps[i].Rule, err)
		}
	}
	last := p.Steps[len(p.Steps)-1].Concl
	t := p.Target
	if !patternsEqual(last.Pattern, t.Pattern) || !litSetEqual(last.X, t.X) {
		return fmt.Errorf("axiom: final step does not conclude the target")
	}
	if len(t.Y) > 0 && !litSetEqual(last.Y, t.Y) {
		return fmt.Errorf("axiom: final consequent differs from the target")
	}
	return nil
}

func checkStep(sigma ged.Set, p *Proof, i int) error {
	s := p.Steps[i]
	if s.Concl == nil || s.Concl.Pattern == nil {
		return fmt.Errorf("missing conclusion")
	}
	if err := ged.RequireGED(s.Concl); err != nil {
		return err
	}
	prem := make([]*ged.GED, len(s.Prem))
	for j, pi := range s.Prem {
		if pi < 0 || pi >= i {
			return fmt.Errorf("premise %d out of range", pi)
		}
		prem[j] = p.Steps[pi].Concl
	}
	switch s.Rule {
	case RulePremise:
		if s.SigmaIndex < 0 || s.SigmaIndex >= len(sigma) {
			return fmt.Errorf("sigma index %d out of range", s.SigmaIndex)
		}
		if !gedsEqual(s.Concl, sigma[s.SigmaIndex]) {
			return fmt.Errorf("conclusion is not Σ[%d]", s.SigmaIndex)
		}
		return nil

	case RuleGED1:
		if len(prem) != 0 {
			return fmt.Errorf("GED1 takes no premises")
		}
		want := append(append([]ged.Literal{}, s.Concl.X...), xid(s.Concl.Pattern)...)
		if !litSetEqual(s.Concl.Y, want) {
			return fmt.Errorf("consequent is not X ∧ X_id")
		}
		if !varsValid(s.Concl.X, s.Concl.Pattern) {
			return fmt.Errorf("antecedent mentions unknown variables")
		}
		return nil

	case RuleGED2:
		if len(prem) != 1 {
			return fmt.Errorf("GED2 takes one premise")
		}
		m := prem[0]
		if err := sameContext(s.Concl, m); err != nil {
			return err
		}
		if len(s.Concl.Y) != 1 {
			return fmt.Errorf("conclusion must be a single literal")
		}
		c := s.Concl.Y[0]
		if c.Op != ged.OpEq || c.Left.Kind != ged.OperandAttr || c.Right.Kind != ged.OperandAttr || c.Left.Attr != c.Right.Attr {
			return fmt.Errorf("conclusion must be u.A = v.A")
		}
		u, v, a := c.Left.Var, c.Right.Var, c.Left.Attr
		if !litIn(ged.IDLit(u, v), m.Y) && !litIn(ged.IDLit(v, u), m.Y) {
			return fmt.Errorf("premise consequent lacks %s.id = %s.id", u, v)
		}
		if !attrAppears(a, u, v, m.Y) {
			return fmt.Errorf("attribute %s does not appear on %s or %s in the premise consequent", a, u, v)
		}
		return nil

	case RuleGED3:
		if len(prem) != 1 {
			return fmt.Errorf("GED3 takes one premise")
		}
		m := prem[0]
		if err := sameContext(s.Concl, m); err != nil {
			return err
		}
		if len(s.Concl.Y) != 1 {
			return fmt.Errorf("conclusion must be a single literal")
		}
		if !litIn(s.Concl.Y[0].Flip(), m.Y) {
			return fmt.Errorf("flipped literal not in the premise consequent")
		}
		return nil

	case RuleGED4:
		if len(prem) != 1 {
			return fmt.Errorf("GED4 takes one premise")
		}
		m := prem[0]
		if err := sameContext(s.Concl, m); err != nil {
			return err
		}
		if len(s.Concl.Y) != 1 {
			return fmt.Errorf("conclusion must be a single literal")
		}
		c := s.Concl.Y[0]
		if c.Op != ged.OpEq {
			return fmt.Errorf("conclusion must be an equality")
		}
		// Search for a middle operand v with (u1 = v), (v = u2) ∈ Y.
		for _, l1 := range m.Y {
			if l1.Op != ged.OpEq || l1.Left != c.Left {
				continue
			}
			for _, l2 := range m.Y {
				if l2.Op == ged.OpEq && l2.Left == l1.Right && l2.Right == c.Right {
					return nil
				}
			}
		}
		return fmt.Errorf("no transitivity chain for %s in the premise consequent", c)

	case RuleGED5:
		if len(prem) != 1 {
			return fmt.Errorf("GED5 takes one premise")
		}
		m := prem[0]
		if err := sameContext(s.Concl, m); err != nil {
			return err
		}
		eq, _ := eqOf(m.Pattern, m.X, m.Y)
		if eq.Consistent() {
			return fmt.Errorf("Eq_X ∪ Eq_Y is consistent; GED5 does not apply")
		}
		if !varsValid(s.Concl.Y, s.Concl.Pattern) {
			return fmt.Errorf("conclusion mentions unknown variables")
		}
		return nil

	case RuleGED6:
		if len(prem) != 2 {
			return fmt.Errorf("GED6 takes two premises (main, side)")
		}
		main, side := prem[0], prem[1]
		if err := sameContext(s.Concl, main); err != nil {
			return err
		}
		eq, vm := eqOf(main.Pattern, main.X, main.Y)
		if !eq.Consistent() {
			return fmt.Errorf("Eq_X ∪ Eq_Y of the main premise is inconsistent")
		}
		h := s.Match
		if h == nil {
			return fmt.Errorf("missing match")
		}
		if err := checkHom(side.Pattern, main.Pattern, h, eq, vm); err != nil {
			return err
		}
		for _, l := range side.X {
			if !holdsUnder(eq, l, h, vm) {
				return fmt.Errorf("h(x̄1) does not satisfy X1 literal %s", l)
			}
		}
		want := append([]ged.Literal{}, main.Y...)
		for _, l := range side.Y {
			want = append(want, substitute(l, h))
		}
		if !litSetEqual(s.Concl.Y, want) {
			return fmt.Errorf("conclusion is not Y ∧ h(Y1)")
		}
		return nil
	}
	return fmt.Errorf("unknown rule")
}

// sameContext requires the conclusion to share the premise's pattern and
// antecedent.
func sameContext(concl, prem *ged.GED) error {
	if !patternsEqual(concl.Pattern, prem.Pattern) {
		return fmt.Errorf("pattern differs from the premise")
	}
	if !litSetEqual(concl.X, prem.X) {
		return fmt.Errorf("antecedent differs from the premise")
	}
	return nil
}

// checkHom verifies that h is a match of q1 in the coercion of eq over
// q's canonical graph: variables land on ⪯-compatible classes, pattern
// edges are realized between classes, and every mapped variable exists.
func checkHom(q1, q *pattern.Pattern, h map[pattern.Var]pattern.Var, eq *chase.Eq, vm map[pattern.Var]graph.NodeID) error {
	co := chase.Coerce(eq)
	for _, w := range q1.Vars() {
		tv, ok := h[w]
		if !ok {
			return fmt.Errorf("match does not bind %s", w)
		}
		if !q.HasVar(tv) {
			return fmt.Errorf("match binds %s to unknown variable %s", w, tv)
		}
		if !graph.LabelMatches(q1.Label(w), eq.ClassLabel(vm[tv])) {
			return fmt.Errorf("label of %s does not match class of %s", w, tv)
		}
	}
	for _, e := range q1.Edges() {
		src := co.NodeOf[vm[h[e.Src]]]
		dst := co.NodeOf[vm[h[e.Dst]]]
		found := false
		for _, ge := range co.Graph.Out(src) {
			if ge.Dst == dst && graph.LabelMatches(e.Label, ge.Label) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("edge (%s,%s,%s) not realized in the coercion", e.Src, e.Label, e.Dst)
		}
	}
	return nil
}
