package reason_test

// Satisfiability and implication, package gdc's, on the paper's worked
// examples of Section 5 and on the random GED sets of this package's
// differential tests, their witnesses checked by this package's
// validator.

import (
	"context"
	"math/rand"
	"testing"

	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

func checkSat(sigma ged.Set) *gdc.SatResult {
	r, err := gdc.CheckSat(context.Background(), sigma, 0)
	if err != nil {
		panic(err)
	}
	return r
}

func implies(sigma ged.Set, phi *ged.GED) *gdc.ImplResult {
	r, err := gdc.Implies(context.Background(), sigma, phi, 0)
	if err != nil {
		panic(err)
	}
	return r
}

// ---- Example 5 / Figure 3: satisfiability ----

// fig3Phi1 is φ1 = Q1[x,y,z](x.A = x.B → y.id = z.id) with Q1 an a-node
// pointing at a b-node and a c-node.
func fig3Phi1() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b").AddVar("z", "c")
	q.AddEdge("x", "e", "y")
	q.AddEdge("x", "e", "z")
	return ged.New("phi1", q,
		[]ged.Literal{ged.VarLit("x", "A", "x", "B")},
		[]ged.Literal{ged.IDLit("y", "z")})
}

// fig3Phi2 is φ2 = Q2[x1,y1,z1,x2,y2,z2](∅ → x1.A = x1.B), Q2 being two
// wildcard-labeled copies of Q1's shape (so Q2 maps homomorphically into
// Q1 but not vice versa).
func fig3Phi2() *ged.GED {
	q := pattern.New()
	for _, i := range []string{"1", "2"} {
		x, y, z := pattern.Var("x"+i), pattern.Var("y"+i), pattern.Var("z"+i)
		q.AddVar(x, graph.Wildcard).AddVar(y, graph.Wildcard).AddVar(z, graph.Wildcard)
		q.AddEdge(x, "e", y)
		q.AddEdge(x, "e", z)
	}
	return ged.New("phi2", q, nil, []ged.Literal{ged.VarLit("x1", "A", "x1", "B")})
}

// fig3Phi2Prime extends Q2 with a connected component C2 (a d-node with
// a self-loop) so that neither Q1 nor Q'2 maps into the other.
func fig3Phi2Prime() *ged.GED {
	p := fig3Phi2()
	q := p.Pattern.Clone()
	q.AddVar("w", "d")
	q.AddEdge("w", "f", "w")
	return ged.New("phi2p", q, nil, []ged.Literal{ged.VarLit("x1", "A", "x1", "B")})
}

func TestExample5IndividuallySatisfiable(t *testing.T) {
	for _, phi := range []*ged.GED{fig3Phi1(), fig3Phi2(), fig3Phi2Prime()} {
		r := checkSat(ged.Set{phi})
		if !r.Satisfiable {
			t.Errorf("%s alone must be satisfiable", phi.Name)
			continue
		}
		if !reason.IsModel(r.Model, ged.Set{phi}) {
			t.Errorf("%s: produced witness is not a model", phi.Name)
		}
	}
}

func TestExample5Sigma1Unsatisfiable(t *testing.T) {
	r := checkSat(ged.Set{fig3Phi1(), fig3Phi2()})
	if r.Satisfiable {
		t.Fatal("Σ1 of Example 5 must be unsatisfiable")
	}
	if r.Conflict == nil {
		t.Error("chase(G_Σ1, Σ1) must be inconsistent (Example 6)")
	}
}

func TestExample5Sigma2Unsatisfiable(t *testing.T) {
	// Even though Q1 and Q'2 are not homomorphic to each other, the GEDs
	// interact and Σ2 has no model (Example 5(2)).
	r := checkSat(ged.Set{fig3Phi1(), fig3Phi2Prime()})
	if r.Satisfiable {
		t.Fatal("Σ2 of Example 5 must be unsatisfiable")
	}
}

// ---- Example 7 / Figure 4: implication ----

func TestExample7Implication(t *testing.T) {
	q1 := pattern.New()
	q1.AddVar("x1", graph.Wildcard).AddVar("x2", graph.Wildcard)
	phi1 := ged.New("phi1", q1,
		[]ged.Literal{ged.VarLit("x1", "A", "x2", "A")},
		[]ged.Literal{ged.IDLit("x1", "x2")})

	q2 := pattern.New()
	q2.AddVar("x1", graph.Wildcard).AddVar("x2", graph.Wildcard)
	phi2 := ged.New("phi2", q2,
		[]ged.Literal{ged.VarLit("x1", "B", "x2", "B")},
		[]ged.Literal{ged.VarLit("x1", "A", "x1", "B")})

	q := pattern.New()
	q.AddVar("x1", graph.Wildcard).AddVar("x2", graph.Wildcard)
	q.AddVar("x3", "a").AddVar("x4", "b")
	phi := ged.New("phi", q,
		[]ged.Literal{ged.VarLit("x1", "A", "x3", "A"), ged.VarLit("x2", "B", "x4", "B")},
		[]ged.Literal{ged.IDLit("x1", "x3"), ged.IDLit("x2", "x4")})

	r := implies(ged.Set{phi1, phi2}, phi)
	if !r.Implied {
		t.Fatalf("Σ must imply φ (Example 7); missing literal: %v", r.Missing)
	}
	if r.ByInconsistency {
		t.Error("implication must come from deduction, not inconsistency")
	}
	// x3 (label a) must have been identified with wildcard-labeled x1 —
	// this is why the chase compares labels with ⪯.
	if !r.Implied {
		return
	}

	// Dropping phi2 loses the implication.
	r2 := implies(ged.Set{phi1}, phi)
	if r2.Implied {
		t.Error("φ must not follow from φ1 alone")
	}
	if r2.Missing == nil {
		t.Error("non-implication must report a missing literal")
	}
}

func TestImplicationReflexive(t *testing.T) {
	phi := fig3Phi1()
	if !implies(ged.Set{phi}, phi).Implied {
		t.Error("Σ must imply its own members")
	}
}

func TestImplicationTrivial(t *testing.T) {
	// Empty consequent is always implied; X → X likewise.
	q := pattern.New()
	q.AddVar("x", "a")
	empty := ged.New("e", q, []ged.Literal{ged.ConstLit("x", "k", graph.Int(1))}, nil)
	if !implies(nil, empty).Implied {
		t.Error("empty consequent must be implied by anything")
	}
	xx := ged.New("xx", q,
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1))})
	if !implies(nil, xx).Implied {
		t.Error("X → X must be implied by the empty set")
	}
}

func TestImplicationByInconsistency(t *testing.T) {
	// Condition (1) of Theorem 4: an unsatisfiable antecedent implies
	// anything.
	q := pattern.New()
	q.AddVar("x", "a")
	phi := ged.New("inc", q,
		[]ged.Literal{ged.ConstLit("x", "k", graph.Int(1)), ged.ConstLit("x", "k", graph.Int(2))},
		[]ged.Literal{ged.ConstLit("x", "m", graph.Int(9))})
	r := implies(nil, phi)
	if !r.Implied || !r.ByInconsistency {
		t.Error("inconsistent Eq_X must imply φ vacuously")
	}
}

func TestImplicationTransitivityChain(t *testing.T) {
	// A → B and B → C implies A → C on one pattern.
	q := pattern.New()
	q.AddVar("x", "p")
	ab := ged.New("ab", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))})
	bc := ged.New("bc", q,
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))},
		[]ged.Literal{ged.ConstLit("x", "c", graph.Int(3))})
	ac := ged.New("ac", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "c", graph.Int(3))})
	if !implies(ged.Set{ab, bc}, ac).Implied {
		t.Error("transitivity chain must be implied")
	}
	if implies(ged.Set{ab}, ac).Implied {
		t.Error("dropping the middle link must lose the implication")
	}
}

func TestGKeyImplication(t *testing.T) {
	// A key on (title, release) implies the same key with a stronger
	// antecedent (title, release, label).
	q := pattern.New()
	q.AddVar("x", "album")
	k1, err := ged.NewGKey("k1", q, "x", func(x, fx pattern.Var) []ged.Literal {
		return []ged.Literal{ged.VarLit(x, "title", fx, "title"), ged.VarLit(x, "release", fx, "release")}
	})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ged.NewGKey("k2", q, "x", func(x, fx pattern.Var) []ged.Literal {
		return []ged.Literal{
			ged.VarLit(x, "title", fx, "title"),
			ged.VarLit(x, "release", fx, "release"),
			ged.VarLit(x, "label", fx, "label"),
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !implies(ged.Set{k1}, k2).Implied {
		t.Error("weaker key must imply stronger-antecedent key")
	}
	if implies(ged.Set{k2}, k1).Implied {
		t.Error("stronger-antecedent key must not imply the weaker key")
	}
}

// TestSatModelsAreModels: whenever CheckSat reports satisfiable, the
// produced witness must actually be a model (Theorem 2's construction).
func TestSatModelsAreModels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sat, unsat := 0, 0
	for trial := 0; trial < 120; trial++ {
		sigma := reason.RandomSigma(rng)
		r := checkSat(sigma)
		if !r.Satisfiable {
			unsat++
			continue
		}
		sat++
		if !reason.Satisfies(r.Model, sigma) {
			t.Fatalf("trial %d: witness violates Σ\nΣ: %v\nmodel:\n%s", trial, sigma, r.Model)
		}
		if !reason.HasAllPatterns(r.Model.Freeze(), sigma) {
			t.Fatalf("trial %d: witness misses a pattern match", trial)
		}
	}
	if sat == 0 || unsat == 0 {
		t.Logf("note: sat=%d unsat=%d (want both populated for coverage)", sat, unsat)
	}
}

// TestGFDxAlwaysSatisfiable: Theorem 3's O(1) row — sets of GFDxs are
// always satisfiable (no constant or id literals, so no chase conflicts),
// and the witness CheckSat builds for them without a chase is a model.
func TestGFDxAlwaysSatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		sigma := reason.RandomSigma(rng)
		// Strip to GFDx: drop constant/id literals.
		var gfdx ged.Set
		for _, d := range sigma {
			strip := func(ls []ged.Literal) []ged.Literal {
				var out []ged.Literal
				for _, l := range ls {
					if k, _ := l.Kind(); k == ged.VarLiteral {
						out = append(out, l)
					}
				}
				return out
			}
			gfdx = append(gfdx, ged.New(d.Name, d.Pattern, strip(d.X), strip(d.Y)))
		}
		if gfdx.Classify() != ged.ClassGFDx {
			t.Fatal("stripping failed")
		}
		r := checkSat(gfdx)
		if !r.Satisfiable {
			t.Fatalf("trial %d: GFDx set reported unsatisfiable: %v", trial, gfdx)
		}
		// The model is built without a chase; it must still be one.
		if !reason.Satisfies(r.Model, gfdx) || !reason.HasAllPatterns(r.Model.Freeze(), gfdx) {
			t.Fatalf("trial %d: GFDx witness is not a model\nΣ: %v\nmodel:\n%s", trial, gfdx, r.Model)
		}
	}
}

// TestImplicationSoundOnRandomGraphs: if Σ ⊨ φ, then every random graph
// satisfying Σ satisfies φ.
func TestImplicationSoundOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	implied, checked := 0, 0
	for trial := 0; trial < 150; trial++ {
		sigma := reason.RandomSigma(rng)
		phi := reason.RandomSigma(rng)[0]
		r := implies(sigma, phi)
		if !r.Implied {
			continue
		}
		implied++
		for i := 0; i < 10; i++ {
			g := reason.RandomGraph(rng)
			if !reason.Satisfies(g, sigma) {
				continue
			}
			checked++
			if !reason.Satisfies(g, ged.Set{phi}) {
				t.Fatalf("trial %d: Σ ⊨ φ claimed but counterexample found\nΣ: %v\nφ: %v\nG:\n%s",
					trial, sigma, phi, g)
			}
		}
	}
	t.Logf("implied=%d graph-checks=%d", implied, checked)
}
