package gdc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

func nodeQ(label graph.Label) *pattern.Pattern {
	q := pattern.New()
	q.AddVar("x", label)
	return q
}

func TestGDCValidateShape(t *testing.T) {
	q := nodeQ("p")
	ok := New("ok", q, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))}, nil)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid GDC rejected: %v", err)
	}
	badID := New("bad", q, nil, []ged.Literal{{Left: ged.ID("x"), Right: ged.ID("x"), Op: ged.OpLt}})
	if badID.Validate() == nil {
		t.Error("ordered id literal accepted")
	}
	badVar := New("bad", q, nil, []ged.Literal{ged.Cmp("z", "a", ged.OpLt, graph.Int(1))})
	if badVar.Validate() == nil {
		t.Error("unknown variable accepted")
	}
}

func TestGDCValidationSalaryDenial(t *testing.T) {
	// Denial constraint: no employee earns more than their manager.
	q := pattern.New()
	q.AddVar("e", "emp").AddVar("m", "emp")
	q.AddEdge("e", "reports_to", "m")
	dc := New("salary", q,
		[]ged.Literal{ged.CmpVars("e", "salary", ged.OpGt, "m", "salary")},
		ged.False("e"))

	g := graph.New()
	boss := g.AddNodeAttrs("emp", map[graph.Attr]graph.Value{"salary": graph.Int(100)})
	worker := g.AddNodeAttrs("emp", map[graph.Attr]graph.Value{"salary": graph.Int(120)})
	g.AddEdge(worker, "reports_to", boss)
	vs := validate(g, ged.Set{dc}, 0)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	g.SetAttr(worker, "salary", graph.Int(90))
	if !reason.Satisfies(g, ged.Set{dc}) {
		t.Error("fixed salary must satisfy the denial constraint")
	}
}

func TestExample9DomainConstraint(t *testing.T) {
	dom := DomainConstraint("tau", "A", graph.Int(0), graph.Int(1))

	// Validation: a tau node with A = 2 violates; A = 1 satisfies; a tau
	// node without A violates φ₁.
	g := graph.New()
	n := g.AddNodeAttrs("tau", map[graph.Attr]graph.Value{"A": graph.Int(2)})
	if reason.Satisfies(g, dom) {
		t.Error("A = 2 must violate the domain constraint")
	}
	g.SetAttr(n, "A", graph.Int(1))
	if !reason.Satisfies(g, dom) {
		t.Error("A = 1 must satisfy the domain constraint")
	}
	g2 := graph.New()
	g2.AddNode("tau")
	if reason.Satisfies(g2, dom) {
		t.Error("missing A must violate φ₁")
	}

	// Satisfiability: the two GDCs have a model.
	r := CheckSat(dom)
	if r.Satisfiable != True {
		t.Fatalf("domain constraint must be satisfiable, got %v", r.Satisfiable)
	}
	if !reason.Satisfies(r.Model, dom) {
		t.Errorf("witness violates Σ:\n%s", r.Model)
	}
}

func TestCheckSatOrderConflict(t *testing.T) {
	q := nodeQ("p")
	sigma := ged.Set{
		New("lt", q, nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))}),
		New("gt", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(7))}),
	}
	if r := CheckSat(sigma); r.Satisfiable != False {
		t.Errorf("5 < a < 7 conflict must be unsatisfiable, got %v", r.Satisfiable)
	}
	// Compatible bounds are satisfiable.
	sigma2 := ged.Set{
		New("lt", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(7))}),
		New("gt", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(5))}),
	}
	r := CheckSat(sigma2)
	if r.Satisfiable != True {
		t.Fatalf("5 < a < 7 must be satisfiable, got %v", r.Satisfiable)
	}
	if v, ok := r.Model.Attr(0, "a"); !ok || !(graph.Int(5).Less(v) && v.Less(graph.Int(7))) {
		t.Errorf("witness value %v outside (5, 7)", v)
	}
}

func TestCheckSatStrictCycle(t *testing.T) {
	// x -e-> y forces x.a < y.a; a 2-cycle in another pattern makes the
	// canonical graph contain nodes where the order loops strictly.
	q1 := pattern.New()
	q1.AddVar("x", "p").AddVar("y", "p")
	q1.AddEdge("x", "e", "y")
	inc := New("inc", q1, nil, []ged.Literal{ged.CmpVars("x", "a", ged.OpLt, "y", "a")})

	q2 := pattern.New()
	q2.AddVar("u", "p").AddVar("v", "p")
	q2.AddEdge("u", "e", "v")
	q2.AddEdge("v", "e", "u")
	cyc := New("cyc", q2, nil, []ged.Literal{ged.VarLit("u", "b", "u", "b")})

	if r := CheckSat(ged.Set{inc, cyc}); r.Satisfiable != False {
		t.Errorf("strict order cycle must be unsatisfiable, got %v", r.Satisfiable)
	}
	// Without the 2-cycle pattern, a chain is a fine model.
	r := CheckSat(ged.Set{inc})
	if r.Satisfiable != True {
		t.Fatalf("chain must be satisfiable, got %v", r.Satisfiable)
	}
	if !reason.Satisfies(r.Model, ged.Set{inc}) {
		t.Error("witness violates inc")
	}
}

func TestCheckSatNeChain(t *testing.T) {
	// a ≠ on an attribute forced equal by another GDC.
	q := pattern.New()
	q.AddVar("x", "p").AddVar("y", "p")
	eq := New("eq", q, nil, []ged.Literal{ged.CmpVars("x", "a", ged.OpEq, "y", "a")})
	q2 := pattern.New()
	q2.AddVar("x", "p").AddVar("y", "p")
	ne := New("ne", q2, nil, []ged.Literal{ged.CmpVars("x", "a", ged.OpNe, "y", "a")})
	if r := CheckSat(ged.Set{eq, ne}); r.Satisfiable != False {
		// Homomorphism allows x = y, making x.a ≠ x.a refutable — so this
		// must be unsatisfiable.
		t.Errorf("eq+ne must be unsatisfiable, got %v", r.Satisfiable)
	}
}

func TestImpliesOrderWeakening(t *testing.T) {
	q := nodeQ("p")
	sigma := ged.Set{New("lt5", q, nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))})}
	phi10 := New("lt10", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(10))})
	if r := Implies(sigma, phi10); r.Implied != True {
		t.Errorf("a < 5 must imply a < 10, got %v", r.Implied)
	}
	// The converse fails, with a certified counterexample.
	sigma10 := ged.Set{New("lt10", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(10))})}
	phi5 := New("lt5", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))})
	r := Implies(sigma10, phi5)
	if r.Implied != False {
		t.Fatalf("a < 10 must not imply a < 5, got %v", r.Implied)
	}
	if r.Counterexample == nil || !reason.Satisfies(r.Counterexample, sigma10) {
		t.Error("counterexample missing or violates Σ")
	}
	if len(validate(r.Counterexample, ged.Set{phi5}, 1)) == 0 {
		t.Error("counterexample does not violate φ")
	}
}

func TestImpliesDenialStrengthening(t *testing.T) {
	// (a > 5 → false) implies (a > 7 → false).
	sigma := ged.Set{New("d5", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(5))}, ged.False("x"))}
	phi := New("d7", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(7))}, ged.False("x"))
	if r := Implies(sigma, phi); r.Implied != True {
		t.Errorf("stronger denial must be implied, got %v", r.Implied)
	}
	// Converse fails.
	sigma7 := ged.Set{New("d7", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(7))}, ged.False("x"))}
	phi5 := New("d5", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(5))}, ged.False("x"))
	if r := Implies(sigma7, phi5); r.Implied != False {
		t.Errorf("weaker denial must not be implied, got %v", r.Implied)
	}
}

func TestImpliesIDLiterals(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "a")
	key := New("key", q, nil, []ged.Literal{ged.IDLit("x", "y")})
	// Σ ∋ φ.
	if r := Implies(ged.Set{key}, key); r.Implied != True {
		t.Errorf("reflexive implication failed: %v", r.Implied)
	}
	// ∅ does not imply the key; the counterexample keeps two nodes.
	r := Implies(nil, key)
	if r.Implied != False {
		t.Fatalf("empty set must not imply a key, got %v", r.Implied)
	}
	if r.Counterexample.NumNodes() != 2 {
		t.Errorf("counterexample must keep the nodes distinct:\n%s", r.Counterexample)
	}
}

// TestGDCImpliesAgreesWithGEDImplication cross-checks the GDC solver
// against the exact chase-based decision on the equality-only fragment.
func TestGDCImpliesAgreesWithGEDImplication(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	agree, unknown := 0, 0
	for trial := 0; trial < 120; trial++ {
		sigma := randomGEDSigma(rng)
		phi := randomGEDSigma(rng)[0]
		exact, _ := reason.ImpliesCtx(context.Background(), sigma, phi, 0)
		want := exact.Implied
		var gs ged.Set
		for _, d := range sigma {
			gs = append(gs, d)
		}
		got := Implies(gs, phi).Implied
		if got == Unknown {
			unknown++
			continue
		}
		if (got == True) != want {
			t.Fatalf("trial %d: GDC solver disagrees with chase: got %v want %v\nΣ=%v\nφ=%v",
				trial, got, want, sigma, phi)
		}
		agree++
	}
	if unknown > agree/4 {
		t.Errorf("too many Unknowns: %d vs %d agreements", unknown, agree)
	}
}

// TestGDCSatAgreesWithGEDSat cross-checks satisfiability on the
// equality-only fragment.
func TestGDCSatAgreesWithGEDSat(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	agree, unknown := 0, 0
	for trial := 0; trial < 120; trial++ {
		sigma := randomGEDSigma(rng)
		exact, _ := reason.CheckSatCtx(context.Background(), sigma, 0)
		want := exact.Satisfiable
		var gs ged.Set
		for _, d := range sigma {
			gs = append(gs, d)
		}
		got := CheckSat(gs).Satisfiable
		if got == Unknown {
			unknown++
			continue
		}
		if (got == True) != want {
			t.Fatalf("trial %d: GDC sat disagrees with chase: got %v want %v\nΣ=%v",
				trial, got, want, sigma)
		}
		agree++
	}
	if unknown > agree/4 {
		t.Errorf("too many Unknowns: %d vs %d agreements", unknown, agree)
	}
}

func randomGEDSigma(rng *rand.Rand) ged.Set {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p", "q"}
	var sigma ged.Set
	for i := 0; i < 1+rng.Intn(2); i++ {
		q := pattern.New()
		q.AddVar("x", labels[rng.Intn(len(labels))])
		q.AddVar("y", labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			q.AddEdge("x", "e", "y")
		}
		var xs, ys []ged.Literal
		switch rng.Intn(3) {
		case 0:
			xs = append(xs, ged.VarLit("x", attrs[0], "y", attrs[0]))
		case 1:
			xs = append(xs, ged.ConstLit("x", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		}
		switch rng.Intn(4) {
		case 0:
			ys = append(ys, ged.IDLit("x", "y"))
		case 1:
			ys = append(ys, ged.ConstLit("y", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		case 2:
			ys = append(ys, ged.VarLit("x", attrs[1], "y", attrs[1]))
		case 3:
			ys = append(ys, ged.ConstLit("x", attrs[0], graph.Int(rng.Intn(2))),
				ged.ConstLit("y", attrs[0], graph.Int(rng.Intn(2))))
		}
		sigma = append(sigma, ged.New(fmt.Sprintf("r%d", i), q, xs, ys))
	}
	return sigma
}

// closeFacts chases two p-nodes x (node 0) and y (node 1) under the
// facts and closes their order layer, as a branch of the search does.
func closeFacts(facts ...ged.Literal) (*state, bool) {
	g := graph.New()
	g.AddNode("p")
	g.AddNode("p")
	s := newSearch(g, ged.Set{New("facts", nodeQ("p"), nil, facts)}, nil)
	for _, l := range facts {
		s.push(chase.Seed{Literal: l, Nodes: map[pattern.Var]graph.NodeID{"x": 0, "y": 1}})
	}
	return s.chase()
}

func TestStoreFeasibility(t *testing.T) {
	st, ok := closeFacts(ged.CmpVars("x", "a", ged.OpLe, "y", "a"), ged.CmpVars("y", "a", ged.OpLe, "x", "a"))
	if !ok {
		t.Fatal("a ≤ b ≤ a is feasible (forces equality)")
	}
	if !st.res.Eq.SameValue(0, "a", 1, "a") {
		t.Error("non-strict cycle must merge classes")
	}
	if _, ok := closeFacts(ged.CmpVars("x", "a", ged.OpLt, "y", "a"), ged.CmpVars("y", "a", ged.OpLe, "x", "a")); ok {
		t.Error("strict cycle must be infeasible")
	}
	// Constant chain: 3 ≤ x ≤ 2 is infeasible.
	if _, ok := closeFacts(ged.Cmp("x", "a", ged.OpGe, graph.Int(3)), ged.Cmp("x", "a", ged.OpLe, graph.Int(2))); ok {
		t.Error("3 ≤ x ≤ 2 must be infeasible")
	}
	// Diseq after forced merge.
	if _, ok := closeFacts(ged.CmpVars("x", "a", ged.OpNe, "y", "a"),
		ged.CmpVars("x", "a", ged.OpLe, "y", "a"), ged.CmpVars("y", "a", ged.OpLe, "x", "a")); ok {
		t.Error("x ≠ y with x ≤ y ≤ x must be infeasible")
	}
}

func TestStoreAssignRespectsOrder(t *testing.T) {
	st, ok := closeFacts(ged.Cmp("x", "a", ged.OpGt, graph.Int(0)),
		ged.CmpVars("x", "a", ged.OpLt, "y", "a"), ged.Cmp("y", "a", ged.OpLt, graph.Int(10)))
	if !ok {
		t.Fatal("feasible store rejected")
	}
	vals := st.ord.assign()
	ta, _ := st.res.Eq.SlotTerm(0, "a")
	tb, _ := st.res.Eq.SlotTerm(1, "a")
	va, vb := vals[ta], vals[tb]
	if !graph.Int(0).Less(va) || !va.Less(vb) || !vb.Less(graph.Int(10)) {
		t.Errorf("bounds violated: a=%v b=%v", va, vb)
	}
}

func TestMixedKindOrderInfeasible(t *testing.T) {
	// "" < x < 5 is infeasible: all numbers precede all strings.
	if _, ok := closeFacts(ged.Cmp("x", "a", ged.OpGt, graph.String("")), ged.Cmp("x", "a", ged.OpLt, graph.Int(5))); ok {
		t.Error(`"" < x < 5 must be infeasible under the U order`)
	}
}

// validate is Engine.Validate's check of Σ on g, up to limit (≤ 0 means
// all).
func validate(g *graph.Graph, sigma ged.Set, limit int) []reason.Violation {
	vs, _ := reason.NewValidatorOn(g.Freeze(), sigma).RunCtx(context.Background(), limit)
	return vs
}
