package axiom

import (
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// TestProveTransitiveNodeChain exercises deriveNodeEq: the target id
// literal a.id = c.id is never textual in the accumulated consequent —
// only a~b and b~c are — so the proof must walk the node proof forest
// and chain the links with GED4.
func TestProveTransitiveNodeChain(t *testing.T) {
	q := pattern.New()
	q.AddVar("a", "p").AddVar("b", "p").AddVar("c", "p")
	phi := ged.New("trans", q,
		[]ged.Literal{ged.IDLit("a", "b"), ged.IDLit("b", "c")},
		[]ged.Literal{ged.IDLit("a", "c")})
	if !chaseImplies(nil, phi) {
		t.Fatal("precondition: transitivity of id literals must be implied")
	}
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	used := map[Rule]bool{}
	for _, s := range p.Steps {
		used[s.Rule] = true
	}
	if !used[RuleGED4] {
		t.Errorf("transitive chain must use GED4\n%s", p)
	}
}

// TestProveReflexiveAttr exercises deriveReflexive: x.A = x.A is
// deducible once the slot exists, but never textual.
func TestProveReflexiveAttr(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p")
	phi := ged.New("refl", q,
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(5))},
		[]ged.Literal{ged.VarLit("x", "A", "x", "A")})
	if !chaseImplies(nil, phi) {
		t.Fatal("precondition: x.A = x.A must follow from x.A = 5")
	}
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

// TestProveIDPropValueChain exercises the IDProp branch of valueLink:
// the value chain from u.B to v.C passes through the attribute-class
// merge induced by identifying x and y (closure rule (d)), which the
// proof realizes with GED2.
func TestProveIDPropValueChain(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p").AddVar("y", "p").AddVar("u", "q").AddVar("v", "q")
	phi := ged.New("idprop", q,
		[]ged.Literal{
			ged.VarLit("x", "A", "u", "B"),
			ged.VarLit("y", "A", "v", "C"),
			ged.IDLit("x", "y"),
		},
		[]ged.Literal{ged.VarLit("u", "B", "v", "C")})
	if !chaseImplies(nil, phi) {
		t.Fatal("precondition: u.B = v.C must follow")
	}
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	used := map[Rule]bool{}
	for _, s := range p.Steps {
		used[s.Rule] = true
	}
	if !used[RuleGED2] {
		t.Errorf("IDProp chain must use GED2\n%s", p)
	}
}

// TestProveConstantBridgeChain: two attributes equated only through a
// shared constant (closure rule (b)); the chain passes through the
// constant endpoint with a GED4 fold over the generalized literal c = x.A.
func TestProveConstantBridgeChain(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p").AddVar("y", "p")
	phi := ged.New("bridge", q,
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(7)), ged.ConstLit("y", "B", graph.Int(7))},
		[]ged.Literal{ged.VarLit("x", "A", "y", "B")})
	if !chaseImplies(nil, phi) {
		t.Fatal("precondition: shared constant must equate the attributes")
	}
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

// TestProveDeduceConstantThroughVar: the target constant literal y.B = 7
// follows from x.A = 7 and x.A = y.B.
func TestProveDeduceConstantThroughVar(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p").AddVar("y", "p")
	phi := ged.New("cthru", q,
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(7)), ged.VarLit("x", "A", "y", "B")},
		[]ged.Literal{ged.ConstLit("y", "B", graph.Int(7))})
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

// TestProveLongMixedChain: a five-hop chain mixing id merges, constants
// and variable literals, all folded into one target literal.
func TestProveLongMixedChain(t *testing.T) {
	q := pattern.New()
	for _, v := range []pattern.Var{"a", "b", "c", "d"} {
		q.AddVar(v, "p")
	}
	phi := ged.New("long", q,
		[]ged.Literal{
			ged.VarLit("a", "k", "b", "k"), // a.k = b.k
			ged.ConstLit("b", "k", graph.Int(3)),
			ged.ConstLit("c", "m", graph.Int(3)), // bridge through 3
			ged.VarLit("c", "m", "d", "n"),
		},
		[]ged.Literal{ged.VarLit("a", "k", "d", "n")})
	if !chaseImplies(nil, phi) {
		t.Fatal("precondition: the chain must be implied")
	}
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}
