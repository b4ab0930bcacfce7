// Package gedor holds the tests of the GED∨s of Section 7.2: GEDs whose
// consequent is a disjunction. The rules are ged.GEDs with the
// Disjunctive bit (ged.NewOr), gen.SplitOr splits a GED into them, the
// domain constraint of Example 10 is gen.DomainGEDor, and the analyses
// are package gdc's.
package gedor

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

func checkSat(t *testing.T, sigma ged.Set) *gdc.SatResult {
	t.Helper()
	r, err := gdc.CheckSat(context.Background(), sigma, 0)
	if err != nil {
		t.Fatalf("CheckSat: %v", err)
	}
	return r
}

func implies(t *testing.T, sigma ged.Set, phi *ged.GED) *gdc.ImplResult {
	t.Helper()
	r, err := gdc.Implies(context.Background(), sigma, phi, 0)
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

func TestExample10DomainConstraint(t *testing.T) {
	// ψ: Qe[x](∅ → x.A = 0 ∨ x.A = 1).
	psi := gen.DomainGEDor("tau", "A", graph.Int(0), graph.Int(1))

	g := graph.New()
	n := g.AddNodeAttrs("tau", map[graph.Attr]graph.Value{"A": graph.Int(1)})
	if !reason.Satisfies(g, ged.Set{psi}) {
		t.Error("A = 1 must satisfy the domain constraint")
	}
	g.SetAttr(n, "A", graph.Int(2))
	if reason.Satisfies(g, ged.Set{psi}) {
		t.Error("A = 2 must violate")
	}
	// Unlike the GDC pair of Example 9, the single GED∨ also forces the
	// attribute to exist.
	g2 := graph.New()
	g2.AddNode("tau")
	if reason.Satisfies(g2, ged.Set{psi}) {
		t.Error("missing A must violate the disjunction")
	}

	r := checkSat(t, ged.Set{psi})
	if !r.Satisfiable {
		t.Fatalf("domain constraint must be satisfiable, got %v", r.Satisfiable)
	}
	if !reason.Satisfies(r.Model, ged.Set{psi}) {
		t.Error("witness violates ψ")
	}
	if v, ok := r.Model.Attr(0, "A"); !ok || !(v.Equal(graph.Int(0)) || v.Equal(graph.Int(1))) {
		t.Errorf("witness A = %v outside {0, 1}", v)
	}
}

func TestCheckSatForbidding(t *testing.T) {
	// An empty disjunction forbids the pattern outright; a Σ whose
	// pattern must match (strong satisfiability) is then unsatisfiable.
	forbid := ged.NewOr("forbid", nodeQ("tau"), nil, nil)
	if r := checkSat(t, ged.Set{forbid}); r.Satisfiable {
		t.Errorf("forbidding constraint alone must be unsatisfiable, got %v", r.Satisfiable)
	}
}

func TestCheckSatBranchingNeeded(t *testing.T) {
	// ψ1: x.A = 0 ∨ x.A = 1; ψ2: x.A = 1 ∨ x.A = 2. Only A = 1 satisfies
	// both, so the search must discard the first branch of ψ1 or commit
	// to the shared disjunct.
	psi1 := ged.NewOr("p1", nodeQ("tau"), nil, []ged.Literal{
		ged.ConstLit("x", "A", graph.Int(0)), ged.ConstLit("x", "A", graph.Int(1))})
	psi2 := ged.NewOr("p2", nodeQ("tau"), nil, []ged.Literal{
		ged.ConstLit("x", "A", graph.Int(1)), ged.ConstLit("x", "A", graph.Int(2))})
	r := checkSat(t, ged.Set{psi1, psi2})
	if !r.Satisfiable {
		t.Fatalf("ψ1 ∧ ψ2 must be satisfiable (A = 1), got %v", r.Satisfiable)
	}
	if !reason.Satisfies(r.Model, ged.Set{psi1, psi2}) {
		t.Error("witness violates the set")
	}

	// Disjoint domains are unsatisfiable.
	psi3 := ged.NewOr("p3", nodeQ("tau"), nil, []ged.Literal{
		ged.ConstLit("x", "A", graph.Int(7)), ged.ConstLit("x", "A", graph.Int(8))})
	if r := checkSat(t, ged.Set{psi1, psi3}); r.Satisfiable {
		t.Errorf("disjoint domains must be unsatisfiable, got %v", r.Satisfiable)
	}
}

func TestImpliesDomainWeakening(t *testing.T) {
	// A ∈ {0} implies A ∈ {0, 1} but not vice versa.
	narrow := ged.NewOr("n", nodeQ("tau"), nil, []ged.Literal{ged.ConstLit("x", "A", graph.Int(0))})
	wide := ged.NewOr("w", nodeQ("tau"), nil, []ged.Literal{
		ged.ConstLit("x", "A", graph.Int(0)), ged.ConstLit("x", "A", graph.Int(1))})
	if r := implies(t, ged.Set{narrow}, wide); !r.Implied {
		t.Errorf("narrow must imply wide, got %v", r.Implied)
	}
	r := implies(t, ged.Set{wide}, narrow)
	if r.Implied {
		t.Fatalf("wide must not imply narrow, got %v", r.Implied)
	}
	if r.Counterexample() == nil || !reason.Satisfies(r.Counterexample(), ged.Set{wide}) {
		t.Error("countermodel missing or violates Σ")
	}
	if len(validate(r.Counterexample(), ged.Set{narrow}, 1)) == 0 {
		t.Error("countermodel does not violate φ")
	}
}

func TestImpliesReflexive(t *testing.T) {
	psi := gen.DomainGEDor("tau", "A", graph.Int(0), graph.Int(1))
	if r := implies(t, ged.Set{psi}, psi); !r.Implied {
		t.Errorf("Σ must imply its own member, got %v", r.Implied)
	}
}

func TestImpliesThroughCaseSplit(t *testing.T) {
	// Σ: A ∈ {0, 1}; in either case B = 5 (two conditional GED∨s).
	// Then Σ implies B = 5.
	dom := gen.DomainGEDor("tau", "A", graph.Int(0), graph.Int(1))
	c0 := ged.NewOr("c0", nodeQ("tau"),
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(0))},
		[]ged.Literal{ged.ConstLit("x", "B", graph.Int(5))})
	c1 := ged.NewOr("c1", nodeQ("tau"),
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "B", graph.Int(5))})
	phi := ged.NewOr("phi", nodeQ("tau"), nil, []ged.Literal{ged.ConstLit("x", "B", graph.Int(5))})
	if r := implies(t, ged.Set{dom, c0, c1}, phi); !r.Implied {
		t.Errorf("case split must yield B = 5 on every branch, got %v", r.Implied)
	}
	// Dropping one case loses the implication.
	r := implies(t, ged.Set{dom, c0}, phi)
	if r.Implied {
		t.Errorf("missing case must break the implication, got %v", r.Implied)
	}
}

func TestFromGED(t *testing.T) {
	q := nodeQ("p")
	g := ged.New("g", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2)), ged.ConstLit("x", "c", graph.Int(3))})
	split := gen.SplitOr(g)
	if len(split) != 2 {
		t.Fatalf("split into %d, want 2", len(split))
	}
	for _, s := range split {
		if len(s.Y) != 1 {
			t.Error("each split member must have a single disjunct")
		}
	}
	// Empty-consequent GED becomes a trivially-true GED∨.
	empty := ged.New("e", q, nil, nil)
	sp := gen.SplitOr(empty)
	if len(sp) != 1 || len(sp[0].Y) != 1 {
		t.Fatal("empty consequent must become one trivial disjunct")
	}
	gr := graph.New()
	gr.AddNode("p")
	if !reason.Satisfies(gr, ged.Set{sp[0]}) {
		t.Error("trivial disjunct must hold")
	}
}

// TestFromGEDNamesPastNine: split members are named g#0 … g#11, and
// each is a one-disjunct GED∨.
func TestFromGEDNamesPastNine(t *testing.T) {
	var ys []ged.Literal
	for i := 0; i < 12; i++ {
		ys = append(ys, ged.ConstLit("x", graph.Attr(fmt.Sprintf("a%d", i)), graph.Int(i)))
	}
	split := gen.SplitOr(ged.New("g", nodeQ("p"), nil, ys))
	if len(split) != 12 {
		t.Fatalf("split into %d, want 12", len(split))
	}
	for i, d := range split {
		if want := fmt.Sprintf("g#%d", i); d.Name != want || d.Form() != ged.FormGEDor || len(d.Y) != 1 {
			t.Errorf("member %d: %s (%s, %d disjuncts), want %s", i, d.Name, d.Form(), len(d.Y), want)
		}
	}
}

// TestGEDorSatAgreesWithGEDSat: on singleton-consequent GED∨s (i.e.
// plain GEDs), the branching chase must agree with the exact chase that
// the unsplit GEDs get.
func TestGEDorSatAgreesWithGEDSat(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		sigma := randomGEDSigma(rng)
		want := checkSat(t, sigma).Satisfiable
		var ds ged.Set
		for _, d := range sigma {
			ds = append(ds, gen.SplitOr(d)...)
		}
		r := checkSat(t, ds)
		if r.Satisfiable != want {
			t.Fatalf("trial %d: disagreement: got %v want %v\nΣ=%v", trial, r.Satisfiable, want, sigma)
		}
	}
}

// TestGEDorImplAgreesWithGEDImpl cross-checks implication on the
// singleton fragment.
func TestGEDorImplAgreesWithGEDImpl(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		sigma := randomGEDSigma(rng)
		phiGED := randomGEDSigma(rng)[0]
		if len(phiGED.Y) != 1 {
			continue // the split-GED equivalence needs a single literal
		}
		want := implies(t, sigma, phiGED).Implied
		var ds ged.Set
		for _, d := range sigma {
			ds = append(ds, gen.SplitOr(d)...)
		}
		phi := ged.NewOr(phiGED.Name, phiGED.Pattern, phiGED.X, phiGED.Y)
		r := implies(t, ds, phi)
		if r.Implied != want {
			t.Fatalf("trial %d: disagreement: got %v want %v\nΣ=%v\nφ=%v", trial, r.Implied, want, sigma, phiGED)
		}
	}
}

func TestGEDorString(t *testing.T) {
	psi := gen.DomainGEDor("tau", "A", graph.Int(0), graph.Int(1))
	s := psi.String()
	if !strings.Contains(s, "||") {
		t.Errorf("rendered GED∨ must show the disjunction: %s", s)
	}
	forbid := ged.NewOr("f", nodeQ("t"), nil, nil)
	if !strings.Contains(forbid.String(), "false") {
		t.Errorf("empty disjunction must render as false: %s", forbid.String())
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

// validate is Engine.Validate's check of Σ on g, up to limit (≤ 0 means
// all).
func validate(g *graph.Graph, sigma ged.Set, limit int) []reason.Violation {
	vs, _ := reason.NewValidatorOn(g.Freeze(), sigma).RunCtx(context.Background(), limit)
	return vs
}

// TestFromGEDKeepsVerdicts: splitting every GED of Σ by gen.SplitOr changes
// neither satisfiability nor implication (Section 7.2), on random sets
// mixing GEDs with a GDC and a GED∨.
func TestFromGEDKeepsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		sigma := randomGEDSigma(rng)
		label := graph.Label([]string{"a", "b"}[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			sigma = append(sigma, ged.New("lt", nodeQ(label), nil, []ged.Literal{ged.Cmp("x", "p", ged.OpLt, graph.Int(rng.Intn(2)))}))
		}
		if rng.Intn(2) == 0 {
			sigma = append(sigma, gen.DomainGEDor(label, "q", graph.Int(0), graph.Int(1)))
		}
		var split ged.Set
		for _, d := range sigma {
			if d.Form() == ged.FormGED {
				split = append(split, gen.SplitOr(d)...)
			} else {
				split = append(split, d)
			}
		}
		phi := randomGEDSigma(rng)[0]
		sat, satSplit := checkSat(t, sigma).Satisfiable, checkSat(t, split).Satisfiable
		impl, implSplit := implies(t, sigma, phi).Implied, implies(t, split, phi).Implied
		if sat != satSplit || impl != implSplit {
			t.Fatalf("trial %d: sat %v vs split %v, implies %v vs split %v\nΣ=%v\nφ=%v", trial, sat, satSplit, impl, implSplit, sigma, phi)
		}
	}
}
