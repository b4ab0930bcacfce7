package gdc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

func checkSat(t *testing.T, sigma ged.Set) *SatResult {
	t.Helper()
	r, err := CheckSat(context.Background(), sigma, 0)
	if err != nil {
		t.Fatalf("CheckSat: %v", err)
	}
	return r
}

func implies(t *testing.T, sigma ged.Set, phi *ged.GED) *ImplResult {
	t.Helper()
	r, err := Implies(context.Background(), sigma, phi, 0)
	if err != nil {
		t.Fatalf("Implies: %v", err)
	}
	return r
}

func nodeQ(label graph.Label) *pattern.Pattern {
	q := pattern.New()
	q.AddVar("x", label)
	return q
}

func TestGDCValidateShape(t *testing.T) {
	q := nodeQ("p")
	ok := ged.New("ok", q, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))}, nil)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid GDC rejected: %v", err)
	}
	badID := ged.New("bad", q, nil, []ged.Literal{{Left: ged.ID("x"), Right: ged.ID("x"), Op: ged.OpLt}})
	if badID.Validate() == nil {
		t.Error("ordered id literal accepted")
	}
	badVar := ged.New("bad", q, nil, []ged.Literal{ged.Cmp("z", "a", ged.OpLt, graph.Int(1))})
	if badVar.Validate() == nil {
		t.Error("unknown variable accepted")
	}
}

func TestGDCValidationSalaryDenial(t *testing.T) {
	// Denial constraint: no employee earns more than their manager.
	q := pattern.New()
	q.AddVar("e", "emp").AddVar("m", "emp")
	q.AddEdge("e", "reports_to", "m")
	dc := ged.New("salary", q,
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
	dom := gen.DomainGDCs("tau", "A", graph.Int(0), graph.Int(1))

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
	r := checkSat(t, dom)
	if !r.Satisfiable {
		t.Fatalf("domain constraint must be satisfiable, got %v", r.Satisfiable)
	}
	if !reason.Satisfies(r.Model, dom) {
		t.Errorf("witness violates Σ:\n%s", r.Model)
	}
}

func TestCheckSatOrderConflict(t *testing.T) {
	q := nodeQ("p")
	sigma := ged.Set{
		ged.New("lt", q, nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))}),
		ged.New("gt", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(7))}),
	}
	if r := checkSat(t, sigma); r.Satisfiable {
		t.Errorf("5 < a < 7 conflict must be unsatisfiable, got %v", r.Satisfiable)
	}
	// Compatible bounds are satisfiable.
	sigma2 := ged.Set{
		ged.New("lt", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(7))}),
		ged.New("gt", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(5))}),
	}
	r := checkSat(t, sigma2)
	if !r.Satisfiable {
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
	inc := ged.New("inc", q1, nil, []ged.Literal{ged.CmpVars("x", "a", ged.OpLt, "y", "a")})

	q2 := pattern.New()
	q2.AddVar("u", "p").AddVar("v", "p")
	q2.AddEdge("u", "e", "v")
	q2.AddEdge("v", "e", "u")
	cyc := ged.New("cyc", q2, nil, []ged.Literal{ged.VarLit("u", "b", "u", "b")})

	if r := checkSat(t, ged.Set{inc, cyc}); r.Satisfiable {
		t.Errorf("strict order cycle must be unsatisfiable, got %v", r.Satisfiable)
	}
	// Without the 2-cycle pattern, a chain is a fine model.
	r := checkSat(t, ged.Set{inc})
	if !r.Satisfiable {
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
	eq := ged.New("eq", q, nil, []ged.Literal{ged.CmpVars("x", "a", ged.OpEq, "y", "a")})
	q2 := pattern.New()
	q2.AddVar("x", "p").AddVar("y", "p")
	ne := ged.New("ne", q2, nil, []ged.Literal{ged.CmpVars("x", "a", ged.OpNe, "y", "a")})
	if r := checkSat(t, ged.Set{eq, ne}); r.Satisfiable {
		// Homomorphism allows x = y, making x.a ≠ x.a refutable — so this
		// must be unsatisfiable.
		t.Errorf("eq+ne must be unsatisfiable, got %v", r.Satisfiable)
	}
}

func TestImpliesOrderWeakening(t *testing.T) {
	q := nodeQ("p")
	sigma := ged.Set{ged.New("lt5", q, nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))})}
	phi10 := ged.New("lt10", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(10))})
	if r := implies(t, sigma, phi10); !r.Implied {
		t.Errorf("a < 5 must imply a < 10, got %v", r.Implied)
	}
	// The converse fails, with a certified counterexample.
	sigma10 := ged.Set{ged.New("lt10", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(10))})}
	phi5 := ged.New("lt5", nodeQ("p"), nil, []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(5))})
	r := implies(t, sigma10, phi5)
	if r.Implied {
		t.Fatalf("a < 10 must not imply a < 5, got %v", r.Implied)
	}
	if r.Counterexample() == nil || !reason.Satisfies(r.Counterexample(), sigma10) {
		t.Error("counterexample missing or violates Σ")
	}
	if len(validate(r.Counterexample(), ged.Set{phi5}, 1)) == 0 {
		t.Error("counterexample does not violate φ")
	}
}

func TestImpliesDenialStrengthening(t *testing.T) {
	// (a > 5 → false) implies (a > 7 → false).
	sigma := ged.Set{ged.New("d5", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(5))}, ged.False("x"))}
	phi := ged.New("d7", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(7))}, ged.False("x"))
	if r := implies(t, sigma, phi); !r.Implied {
		t.Errorf("stronger denial must be implied, got %v", r.Implied)
	}
	// Converse fails.
	sigma7 := ged.Set{ged.New("d7", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(7))}, ged.False("x"))}
	phi5 := ged.New("d5", nodeQ("p"),
		[]ged.Literal{ged.Cmp("x", "a", ged.OpGt, graph.Int(5))}, ged.False("x"))
	if r := implies(t, sigma7, phi5); r.Implied {
		t.Errorf("weaker denial must not be implied, got %v", r.Implied)
	}
}

func TestImpliesIDLiterals(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "a")
	key := ged.New("key", q, nil, []ged.Literal{ged.IDLit("x", "y")})
	// Σ ∋ φ.
	if r := implies(t, ged.Set{key}, key); !r.Implied {
		t.Errorf("reflexive implication failed: %v", r.Implied)
	}
	// ∅ does not imply the key; the counterexample keeps two nodes.
	r := implies(t, nil, key)
	if r.Implied {
		t.Fatalf("empty set must not imply a key, got %v", r.Implied)
	}
	if r.Counterexample().NumNodes() != 2 {
		t.Errorf("counterexample must keep the nodes distinct:\n%s", r.Counterexample())
	}
}

// TestGDCImpliesAgreesWithGEDImplication cross-checks the solver
// against Theorem 4's chase characterization, run here directly, on
// the equality-only fragment.
func TestGDCImpliesAgreesWithGEDImplication(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 120; trial++ {
		sigma := randomGEDSigma(rng)
		phi := randomGEDSigma(rng)[0]
		if got, want := implies(t, sigma, phi).Implied, theorem4(sigma, phi); got != want {
			t.Fatalf("trial %d: solver disagrees with the chase: got %v want %v\nΣ=%v\nφ=%v",
				trial, got, want, sigma, phi)
		}
	}
}

// TestGDCSatAgreesWithGEDSat cross-checks satisfiability against
// Theorem 2's chase characterization on the equality-only fragment.
func TestGDCSatAgreesWithGEDSat(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		sigma := randomGEDSigma(rng)
		gs, _ := sigma.CanonicalGraph()
		if got, want := checkSat(t, sigma).Satisfiable, chase.Run(gs, sigma).Consistent(); got != want {
			t.Fatalf("trial %d: solver disagrees with the chase: got %v want %v\nΣ=%v",
				trial, got, want, sigma)
		}
	}
}

// theorem4 is Σ ⊨ φ by Theorem 4: chase G_Q from φ's antecedent; φ is
// implied iff the chase is inconsistent or deduces every consequent
// literal.
func theorem4(sigma ged.Set, phi *ged.GED) bool {
	gq, vm := phi.Pattern.ToGraph()
	var seeds []chase.Seed
	for _, l := range phi.X {
		seeds = append(seeds, chase.SeedOf(l, vm))
	}
	res := chase.RunSeeded(gq, sigma, seeds)
	for _, l := range phi.Y {
		if res.Consistent() && !res.Deduced(l, vm) {
			return false
		}
	}
	return true
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
	s := newSearch(context.Background(), g, ged.Set{ged.New("facts", nodeQ("p"), nil, facts)}, nil, 0)
	for _, l := range facts {
		s.push(chase.Seed{Literal: l, Nodes: map[pattern.Var]graph.NodeID{"x": 0, "y": 1}})
	}
	st, _ := s.chase()
	return &st, st.res != nil
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
	vals, ok := st.ord.assign()
	if !ok {
		t.Fatal("no assignment for a feasible numeric store")
	}
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
