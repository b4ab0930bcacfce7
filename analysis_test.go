package gedlib_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"gedlib"
	"gedlib/workload"
)

// plainGEDInputs are the plain-GED satisfiability and implication inputs
// of bench_test.go, with the answers CheckSat and Implies gave on them
// when they were a single chase of G_Σ or G_Q (Theorems 2 and 4): the
// verdict, and for a non-implication the missing literal.
func plainGEDInputs() (sat map[string]gedlib.RuleSet, wantSat map[string]bool, impl map[string][2]any, wantImpl map[string]string) {
	series := []struct {
		name string
		h    *workload.UGraph
	}{{"K3", workload.Complete(3)}, {"C5", workload.Cycle(5)}, {"W5", workload.Wheel(5)}, {"K23", workload.CompleteBipartite(2, 3)}}
	sat, impl = map[string]gedlib.RuleSet{}, map[string][2]any{}
	for _, in := range series {
		sat["GFD3Col/"+in.name] = workload.SatGFDFamily(in.h)
		s, phi := workload.ImplGFDxFamily(in.h)
		impl["GFDx3Col/"+in.name] = [2]any{s, phi}
		s, phi = workload.ImplGKeyFamily(in.h)
		impl["GKey3Col/"+in.name] = [2]any{s, phi}
	}
	sat["GEDWithKeys"] = append(workload.SatGFDFamily(workload.Cycle(5)), workload.PaperKeys()...)
	sat["GKeyRecursive"] = workload.PaperKeys()
	var gedx gedlib.RuleSet
	for _, d := range workload.RandomGEDSet(3, 6, 4, []gedlib.Label{"a", "b"}, []gedlib.Attr{"p", "q"}, 3) {
		var ys []gedlib.Literal
		for _, l := range d.Y {
			if k, _ := l.Kind(); k != gedlib.ConstLiteral {
				ys = append(ys, l)
			}
		}
		gedx = append(gedx, gedlib.NewRule(d.Name, d.Pattern, nil, ys))
	}
	sat["GEDxRandom"] = gedx
	for _, n := range []int{4, 8, 16, 32} {
		sat[fmt.Sprintf("GFDxConstant/n%d", n)], _ = workload.ImplGFDxFamily(workload.Cycle(n))
	}
	q := gedlib.NewPattern()
	q.AddVar("x", "album")
	k1, _ := gedlib.NewKey("k1", q, "x", func(x, fx gedlib.Var) []gedlib.Literal {
		return []gedlib.Literal{gedlib.VarLit(x, "title", fx, "title")}
	})
	k2, _ := gedlib.NewKey("k2", q, "x", func(x, fx gedlib.Var) []gedlib.Literal {
		return []gedlib.Literal{gedlib.VarLit(x, "title", fx, "title"), gedlib.VarLit(x, "release", fx, "release")}
	})
	impl["GEDKeyWeakening"] = [2]any{gedlib.RuleSet{k1}, k2}

	wantSat = map[string]bool{
		"GFD3Col/K3": false, "GFD3Col/C5": false, "GFD3Col/W5": true, "GFD3Col/K23": false,
		"GEDWithKeys": false, "GKeyRecursive": true, "GEDxRandom": false,
		"GFDxConstant/n4": true, "GFDxConstant/n8": true, "GFDxConstant/n16": true, "GFDxConstant/n32": true,
	}
	// "" is implied; otherwise the missing literal.
	wantImpl = map[string]string{
		"GFDx3Col/K3": "", "GFDx3Col/C5": "", "GFDx3Col/W5": "k0.a = k1.a", "GFDx3Col/K23": "",
		"GKey3Col/K3": "", "GKey3Col/C5": "", "GKey3Col/W5": "k0.id = k0'.id", "GKey3Col/K23": "",
		"GEDKeyWeakening": "",
	}
	return sat, wantSat, impl, wantImpl
}

// TestPlainGEDAnswersUnchanged runs every plain-GED input of the
// satisfiability and implication benchmarks through CheckSat and
// Implies: the answers are the chase's, the search never splits, an
// unsatisfiable Σ names the chase's conflict, and every witness small
// enough to validate is confirmed by the validator.
func TestPlainGEDAnswersUnchanged(t *testing.T) {
	ctx, eng := context.Background(), gedlib.New()
	sat, wantSat, impl, wantImpl := plainGEDInputs()
	for name, sigma := range sat {
		r, err := eng.CheckSat(ctx, sigma)
		switch {
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case r.Satisfiable != wantSat[name]:
			t.Errorf("%s: satisfiable = %v, want %v", name, r.Satisfiable, wantSat[name])
		case r.Stats.Branches != 0:
			t.Errorf("%s: a GED set split the search: %+v", name, r.Stats)
		case r.Satisfiable && len(sigma[0].Pattern.Vars()) <= 16 && !gedlib.IsModel(r.Model, sigma):
			// (Validating the larger GFDx models is the hard validation
			// problem itself: their patterns have 16 and 32 variables.)
			t.Errorf("%s: the witness is not a model", name)
		case !r.Satisfiable && r.Conflict == nil:
			t.Errorf("%s: unsatisfiable without the chase's conflict", name)
		}
	}
	for name, in := range impl {
		sigma, phi := in[0].(gedlib.RuleSet), in[1].(*gedlib.Rule)
		r, err := eng.Implies(ctx, sigma, phi)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		missing := ""
		if r.Missing != nil {
			missing = r.Missing.String()
		}
		if r.Implied != (wantImpl[name] == "") || missing != wantImpl[name] || r.ByInconsistency || r.Stats.Branches != 0 {
			t.Errorf("%s: implied %v, missing %q, by inconsistency %v, %+v; want missing %q",
				name, r.Implied, missing, r.ByInconsistency, r.Stats, wantImpl[name])
		}
	}
}

// TestGEDNonImplicationCounterexample: a GED non-implication comes with
// a counterexample, built on request, that satisfies Σ and violates φ.
func TestGEDNonImplicationCounterexample(t *testing.T) {
	ctx, eng := context.Background(), gedlib.New()
	_, _, impl, wantImpl := plainGEDInputs()
	for name, in := range impl {
		if wantImpl[name] == "" {
			continue
		}
		sigma, phi := in[0].(gedlib.RuleSet), in[1].(*gedlib.Rule)
		r, err := eng.Implies(ctx, sigma, phi)
		if err != nil || r.Implied {
			t.Fatalf("%s: %+v, %v", name, r, err)
		}
		ce := r.Counterexample()
		if ce == nil || !gedlib.Satisfies(ce, sigma) || gedlib.Satisfies(ce, gedlib.RuleSet{phi}) {
			t.Errorf("%s: not a counterexample:\n%s", name, ce)
		}
		if r.Counterexample() != ce {
			t.Errorf("%s: the counterexample is built once", name)
		}
	}
	r, err := eng.Implies(ctx, nil, workload.PaperPhi1())
	if err != nil || r.Implied || r.Missing == nil || !gedlib.Satisfies(r.Counterexample(), gedlib.RuleSet{}) ||
		gedlib.Satisfies(r.Counterexample(), gedlib.RuleSet{workload.PaperPhi1()}) {
		t.Errorf("∅ ⊭ φ₁: %+v, %v", r, err)
	}
}

// TestStringGapHasNoWitness: no string lies strictly between "a" and
// "a\x00", which the order layer, dense on every kind, cannot see; the
// analysis names that with ErrNoWitness instead of a verdict. With "b"
// as the upper bound the gap is real and the model is certified.
func TestStringGapHasNoWitness(t *testing.T) {
	ctx, eng := context.Background(), gedlib.New()
	between := func(hi string) gedlib.RuleSet {
		q := gedlib.NewPattern()
		q.AddVar("x", "tau")
		return gedlib.RuleSet{gedlib.NewRule("gap", q, nil, []gedlib.Literal{
			gedlib.Cmp("x", "A", gedlib.OpGt, gedlib.String("a")),
			gedlib.Cmp("x", "A", gedlib.OpLt, gedlib.String(hi)),
		})}
	}
	if r, err := eng.CheckSat(ctx, between("a\x00")); !errors.Is(err, gedlib.ErrNoWitness) {
		t.Errorf(`"a" < x.A < "a\x00": %+v, %v; want ErrNoWitness`, r, err)
	}
	sigma := between("b")
	r, err := eng.CheckSat(ctx, sigma)
	if err != nil || !r.Satisfiable || !gedlib.IsModel(r.Model, sigma) {
		t.Fatalf(`"a" < x.A < "b": %+v, %v`, r, err)
	}
	// When "~" overshoots the bound, the least strings above "a" fit.
	if r, err := eng.CheckSat(ctx, between("a0")); err != nil || !r.Satisfiable || !gedlib.IsModel(r.Model, between("a0")) {
		t.Errorf(`"a" < x.A < "a0": %+v, %v`, r, err)
	}
}

// countdownCtx is a context whose Err turns to Canceled on its n-th
// call: a cancellation at a chosen point of a run, not at a time.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestImpliesCancelledMidSearch cancels a GED∨ implication that needs a
// case split at every point the search checks ctx: each returns
// context.Canceled and no result, and without the cancellation the
// same search answers.
func TestImpliesCancelledMidSearch(t *testing.T) {
	q := func() *gedlib.Pattern {
		p := gedlib.NewPattern()
		p.AddVar("x", "tau")
		return p
	}
	or := func(name string, x, y []gedlib.Literal) *gedlib.Rule {
		r := gedlib.NewRule(name, q(), x, y)
		r.Disjunctive = true
		return r
	}
	b5 := []gedlib.Literal{gedlib.ConstLit("x", "B", gedlib.Int(5))}
	sigma := gedlib.RuleSet{
		workload.DomainGEDor("tau", "A", gedlib.Int(0), gedlib.Int(1)),
		or("c0", []gedlib.Literal{gedlib.ConstLit("x", "A", gedlib.Int(0))}, b5),
		or("c1", []gedlib.Literal{gedlib.ConstLit("x", "A", gedlib.Int(1))}, b5),
	}
	phi := or("phi", nil, b5)
	eng := gedlib.New()

	const plenty = 1 << 40
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(plenty)
	r, err := eng.Implies(ctx, sigma, phi)
	if err != nil || !r.Implied || r.Stats.Branches == 0 {
		t.Fatalf("uncancelled: %+v, %v; want implied after a case split", r, err)
	}
	checks := plenty - ctx.n.Load()
	t.Logf("the search checks ctx %d times", checks)
	for k := range checks {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(k)
		if r, err := eng.Implies(ctx, sigma, phi); !errors.Is(err, context.Canceled) || r != nil {
			t.Fatalf("cancelled at check %d of %d: %+v, %v", k+1, checks, r, err)
		}
	}
}
