package gedlib_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gedlib"
	"gedlib/workload"
)

// litCanon renders a violation set sorted, each entry with its failing
// literal: equal strings mean the same matches fail the same literals.
func litCanon(vs []gedlib.Violation) string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		s := v.GED.Name
		for _, x := range v.GED.Pattern.Vars() {
			s += fmt.Sprintf(":%s=%d", x, v.Match[x])
		}
		out = append(out, s+" !"+v.Literal.String())
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// oracleViolations is the Match-map validation loop, kept as the
// differential's oracle: every match of a rule's pattern satisfying X,
// judged literal by literal by Answers (which evaluates a selection
// through ged.Holds). A conjunctive rule fails at its first failing
// literal; a disjunctive one when every disjunct fails, naming the
// first disjunct, or for an empty disjunction the false desugaring's
// first literal.
func oracleViolations(g *gedlib.Graph, sigma gedlib.RuleSet) []gedlib.Violation {
	key := func(q *gedlib.Pattern, m gedlib.Match) string {
		s := ""
		for _, x := range q.Vars() {
			s += fmt.Sprintf(":%d", m[x])
		}
		return s
	}
	var out []gedlib.Violation
	for _, d := range sigma {
		holding := make([]map[string]bool, len(d.Y))
		for i, l := range d.Y {
			holding[i] = map[string]bool{}
			sel := append(append([]gedlib.Literal{}, d.X...), l)
			for _, m := range gedlib.Answers(&gedlib.Query{Pattern: d.Pattern, X: sel}, g) {
				holding[i][key(d.Pattern, m)] = true
			}
		}
		for _, m := range gedlib.Answers(&gedlib.Query{Pattern: d.Pattern, X: d.X}, g) {
			k := key(d.Pattern, m)
			failing := -1
			for i := range d.Y {
				if d.Disjunctive == holding[i][k] {
					failing = i
					break
				}
			}
			switch {
			case !d.Disjunctive && failing >= 0:
				out = append(out, gedlib.Violation{GED: d, Match: m, Literal: &d.Y[failing]})
			case d.Disjunctive && failing < 0 && len(d.Y) > 0:
				out = append(out, gedlib.Violation{GED: d, Match: m, Literal: &d.Y[0]})
			case d.Disjunctive && failing < 0:
				out = append(out, gedlib.Violation{GED: d, Match: m, Literal: &gedlib.False(d.Pattern.Vars()[0])[0]})
			}
		}
	}
	return out
}

var cmpOps = []gedlib.Op{gedlib.OpNe, gedlib.OpLt, gedlib.OpLe, gedlib.OpGt, gedlib.OpGe}

// threeFormSigma turns RandomGEDSet's GEDs into a mix of all three
// forms: a seeded share of rules becomes disjunctive (with up to two
// more disjuncts, none at all, or a trivial one), and in the rest a
// seeded share of attribute literals compares with another predicate.
func threeFormSigma(seed int64) gedlib.RuleSet {
	rng := rand.New(rand.NewSource(seed))
	attrs := []gedlib.Attr{"p", "q"}
	sigma := workload.RandomGEDSet(seed, 8, 3, []gedlib.Label{"a", "b"}, attrs, 3)
	for _, d := range sigma {
		vars := d.Pattern.Vars()
		if rng.Intn(3) == 0 {
			d.Disjunctive = true
			switch rng.Intn(5) {
			case 0:
				d.Y = nil
			case 1:
				d.Y = append(d.Y, gedlib.IDLit(vars[0], vars[0]))
			default:
				for k := 0; k < 1+rng.Intn(2); k++ {
					d.Y = append(d.Y, gedlib.ConstLit(vars[rng.Intn(len(vars))], attrs[rng.Intn(2)], gedlib.Int(rng.Intn(3))))
				}
			}
			continue
		}
		for _, ls := range [][]gedlib.Literal{d.X, d.Y} {
			for i := range ls {
				if k, _ := ls[i].Kind(); k != gedlib.IDLiteral && rng.Intn(2) == 0 {
					ls[i].Op = cmpOps[rng.Intn(len(cmpOps))]
				}
			}
		}
		if rng.Intn(3) == 0 {
			d.X = append(d.X, gedlib.Cmp(vars[len(vars)-1], attrs[rng.Intn(2)], cmpOps[rng.Intn(len(cmpOps))], gedlib.Int(rng.Intn(3))))
		}
	}
	return sigma
}

// randomValue is a small Int, or now and then a String, so that
// comparisons also meet values of the other kind.
func randomValue(rng *rand.Rand) gedlib.Value {
	if rng.Intn(6) == 0 {
		return gedlib.String("s")
	}
	return gedlib.Int(rng.Intn(3))
}

func randomFormGraph(rng *rand.Rand, n int) *gedlib.Graph {
	g := gedlib.NewGraph()
	for i := 0; i < n; i++ {
		attrs := map[gedlib.Attr]gedlib.Value{}
		for _, a := range []gedlib.Attr{"p", "q"} {
			if rng.Intn(4) > 0 {
				attrs[a] = randomValue(rng)
			}
		}
		g.AddNodeAttrs([]gedlib.Label{"a", "b"}[rng.Intn(2)], attrs)
	}
	for i := 0; i < 2*n; i++ {
		g.AddEdge(gedlib.NodeID(rng.Intn(n)), "e", gedlib.NodeID(rng.Intn(n)))
	}
	return g
}

func mutateFormGraph(rng *rand.Rand, g *gedlib.Graph) {
	for k := 0; k < 1+rng.Intn(4); k++ {
		id := gedlib.NodeID(rng.Intn(g.NumNodes()))
		switch rng.Intn(4) {
		case 0, 1:
			g.SetAttr(id, []gedlib.Attr{"p", "q"}[rng.Intn(2)], randomValue(rng))
		case 2:
			g.AddNodeAttrs([]gedlib.Label{"a", "b"}[rng.Intn(2)], map[gedlib.Attr]gedlib.Value{"p": randomValue(rng)})
		default:
			g.AddEdge(id, "e", gedlib.NodeID(rng.Intn(g.NumNodes())))
		}
	}
}

// TestThreeFormDifferential: over random Σ mixing GEDs, GDCs and GED∨s
// and random graphs and deltas, Engine.Validate ≡ Session.Apply ≡ the
// Match-map oracle — the same matches, failing the same literals.
func TestThreeFormDifferential(t *testing.T) {
	ctx := context.Background()
	forms := map[string]int{}
	violations := 0
	for seed := int64(1); seed <= 12; seed++ {
		sigma := threeFormSigma(seed)
		if err := sigma.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range sigma {
			forms[d.Form().String()]++
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomFormGraph(rng, 12)
		s, err := gedlib.New().Open(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		eng := gedlib.New()
		for step := 0; step < 8; step++ {
			applied, err := s.Apply(ctx, g.DeltaSince(s.Snapshot().SourceVersion()))
			if err != nil {
				t.Fatal(err)
			}
			validated, err := eng.Validate(ctx, g, sigma)
			if err != nil {
				t.Fatal(err)
			}
			want := litCanon(oracleViolations(g, sigma))
			if got := litCanon(validated); got != want {
				t.Fatalf("seed %d step %d: Engine.Validate diverged from the oracle\n got:\n%s\nwant:\n%s", seed, step, got, want)
			}
			if got := litCanon(applied); got != want {
				t.Fatalf("seed %d step %d: Session.Apply diverged from the oracle\n got:\n%s\nwant:\n%s", seed, step, got, want)
			}
			checkLiteralRefs(t, fmt.Sprintf("seed %d step %d: Engine.Validate", seed, step), validated)
			checkLiteralRefs(t, fmt.Sprintf("seed %d step %d: Session.Apply", seed, step), applied)
			violations += len(validated)
			mutateFormGraph(rng, g)
		}
	}
	if forms["GED"] == 0 || forms["GDC"] == 0 || forms["GED∨"] == 0 || violations == 0 {
		t.Fatalf("differential is vacuous: forms %v, %d violations", forms, violations)
	}
}

// checkLiteralRefs: every violation's literal is a pointer into its
// rule, never a copy: an element of a conjunctive rule's Y, the first
// disjunct of a disjunctive one, and for an empty disjunction a literal
// of its false desugaring.
func checkLiteralRefs(t *testing.T, what string, vs []gedlib.Violation) {
	t.Helper()
	for _, v := range vs {
		d, l := v.GED, v.Literal
		switch {
		case l == nil:
			t.Fatalf("%s: a violation of %s has no literal", what, d.Name)
		case d.Disjunctive && len(d.Y) == 0:
			if !slices.Contains(gedlib.False(d.Pattern.Vars()[0]), *l) {
				t.Fatalf("%s: %s names %s, not a literal of its false desugaring", what, d.Name, l)
			}
		case d.Disjunctive:
			if l != &d.Y[0] {
				t.Fatalf("%s: %s names %s, not a pointer to its first disjunct", what, d.Name, l)
			}
		default:
			into := false
			for i := range d.Y {
				into = into || l == &d.Y[i]
			}
			if !into {
				t.Fatalf("%s: %s names %s, not a pointer into its Y", what, d.Name, l)
			}
		}
	}
}

// TestPostingsThreeForms: the value postings a session's rules declare
// — the constant antecedent literals x.A = c of GEDs, GDCs and GED∨s,
// which Open pushes down — equal a brute-force filter of the attribute
// column in every snapshot of the session's lineage, the older ones
// included, as deltas advance it.
func TestPostingsThreeForms(t *testing.T) {
	ctx := context.Background()
	type pair struct {
		a gedlib.Attr
		v gedlib.Value
	}
	pairs := 0
	for seed := int64(1); seed <= 12; seed++ {
		sigma := threeFormSigma(seed)
		var declared []pair
		for _, d := range sigma {
			for _, l := range d.X {
				if k, ok := l.Kind(); ok && k == gedlib.ConstLiteral {
					declared = append(declared, pair{l.Left.Attr, l.Right.Const})
				}
			}
		}
		pairs += len(declared)
		rng := rand.New(rand.NewSource(seed))
		g := randomFormGraph(rng, 12)
		s, err := gedlib.New().Open(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		lineage := []*gedlib.Snapshot{s.Snapshot()}
		for step := 0; step < 8; step++ {
			mutateFormGraph(rng, g)
			if _, err := s.Apply(ctx, g.DeltaSince(s.Snapshot().SourceVersion())); err != nil {
				t.Fatal(err)
			}
			lineage = append(lineage, s.Snapshot())
			for i, snap := range lineage {
				for _, p := range declared {
					var want []gedlib.NodeID
					for _, id := range snap.Nodes() {
						if v, ok := snap.Attr(id, p.a); ok && v == p.v {
							want = append(want, id)
						}
					}
					if got := snap.Lookup(p.a, p.v); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d snapshot %d: Lookup(%s,%v) = %v, want %v", seed, step, i, p.a, p.v, got, want)
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("differential is vacuous: no rule pushes a constant literal down")
	}
}

// TestOneFormEdgeCases pins the corners of judging GDCs and GED∨s on
// the compiled path: existence semantics for comparisons, the total
// order across value kinds, and the disjunction's degenerate shapes.
func TestOneFormEdgeCases(t *testing.T) {
	ctx := context.Background()
	node := func() *gedlib.Pattern {
		q := gedlib.NewPattern()
		q.AddVar("x", "a")
		return q
	}
	edge := func() *gedlib.Pattern {
		q := gedlib.NewPattern()
		q.AddVar("x", "a").AddVar("y", "a")
		q.AddEdge("x", "e", "y")
		return q
	}
	disj := func(r *gedlib.Rule) *gedlib.Rule { r.Disjunctive = true; return r }
	lt5 := gedlib.Cmp("x", "p", gedlib.OpLt, gedlib.Int(5))
	for _, c := range []struct {
		name  string
		rule  *gedlib.Rule
		attrs map[gedlib.Attr]gedlib.Value // of every node
		loop  bool                         // the nodes' edges are self-loops
		want  string                       // the failing literal of each violation, "" for none
	}{
		{"empty disjunction", disj(gedlib.NewRule("r", node(), nil, nil)), nil, false, `x._F = 0`},
		{"trivial disjunct", disj(gedlib.NewRule("r", node(), nil, []gedlib.Literal{gedlib.ConstLit("x", "p", gedlib.Int(1)), gedlib.IDLit("x", "x")})), nil, false, ""},
		{"one failing disjunct of two", disj(gedlib.NewRule("r", node(), nil, []gedlib.Literal{gedlib.ConstLit("x", "p", gedlib.Int(1)), gedlib.ConstLit("x", "p", gedlib.Int(2))})),
			map[gedlib.Attr]gedlib.Value{"p": gedlib.Int(2)}, false, ""},
		{"every disjunct fails", disj(gedlib.NewRule("r", node(), nil, []gedlib.Literal{gedlib.ConstLit("x", "p", gedlib.Int(1)), gedlib.ConstLit("x", "p", gedlib.Int(2))})),
			map[gedlib.Attr]gedlib.Value{"p": gedlib.Int(3)}, false, `x.p = 1`},
		{"comparison on a missing attribute in Y", gedlib.NewRule("r", node(), nil, []gedlib.Literal{lt5}), nil, false, `x.p < 5`},
		{"comparison on a missing attribute in X", gedlib.NewRule("r", node(), []gedlib.Literal{lt5}, gedlib.False("x")), nil, false, ""},
		{"String < Int", gedlib.NewRule("r", node(), nil, []gedlib.Literal{lt5}),
			map[gedlib.Attr]gedlib.Value{"p": gedlib.String("s")}, false, `x.p < 5`},
		{"String > Int", gedlib.NewRule("r", node(), nil, []gedlib.Literal{gedlib.Cmp("x", "p", gedlib.OpGt, gedlib.Int(5))}),
			map[gedlib.Attr]gedlib.Value{"p": gedlib.String("s")}, false, ""},
		{"id literal in a disjunction, distinct nodes", disj(gedlib.NewRule("r", edge(), nil, []gedlib.Literal{gedlib.IDLit("x", "y"), gedlib.ConstLit("x", "p", gedlib.Int(1))})),
			nil, false, `x.id = y.id`},
		{"id literal in a disjunction, one node", disj(gedlib.NewRule("r", edge(), nil, []gedlib.Literal{gedlib.IDLit("x", "y"), gedlib.ConstLit("x", "p", gedlib.Int(1))})),
			nil, true, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := gedlib.NewGraph()
			a := g.AddNodeAttrs("a", c.attrs)
			b := g.AddNodeAttrs("a", c.attrs)
			if c.loop {
				g.AddEdge(a, "e", a)
			} else {
				g.AddEdge(a, "e", b)
			}
			sigma := gedlib.RuleSet{c.rule}
			if err := sigma.Validate(); err != nil {
				t.Fatal(err)
			}
			vs, err := gedlib.New().Validate(ctx, g, sigma)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) > 0 && c.want == "" || len(vs) == 0 && c.want != "" {
				t.Fatalf("%d violations (%s), want failing literal %q", len(vs), litCanon(vs), c.want)
			}
			for _, v := range vs {
				if v.Literal.String() != c.want {
					t.Errorf("violation names %s, want %s", v.Literal, c.want)
				}
			}
			if got, want := litCanon(vs), litCanon(oracleViolations(g, sigma)); got != want {
				t.Errorf("Validate and the oracle disagree:\n%s\nvs\n%s", got, want)
			}
			if ok, err := gedlib.New().Satisfies(ctx, g, sigma); err != nil || ok != (len(vs) == 0) {
				t.Errorf("Satisfies = %v, %v with %d violations", ok, err, len(vs))
			}
		})
	}
}

const threeFormRules = `
ged raise on (e:emp)-[reports_to]->(m:emp) {
  when e.salary > m.salary
  then false
}
ged flag on (x:account) {
  then x.flag = 0 or x.flag = 1
}
ged plain on (x:account) {
  then x.flag = x.flag
}
`

// TestGEDOnlyMethodsRejectOtherForms: ParseRules reads all three forms;
// every Engine method defined for GEDs only (Chase, Repair, Prove,
// CheckProof, OptimizeQuery) answers a GDC or a GED∨ with an error
// wrapping ErrNotGED, while CheckSat and Implies decide every form, with
// witnesses the validator confirms. Nothing panics.
func TestGEDOnlyMethodsRejectOtherForms(t *testing.T) {
	ctx := context.Background()
	sigma, err := gedlib.ParseRules(threeFormRules)
	if err != nil {
		t.Fatal(err)
	}
	if f := fmt.Sprint(sigma[0].Form(), sigma[1].Form(), sigma[2].Form()); f != "GDC GED∨ GED" {
		t.Fatalf("parsed forms %s", f)
	}
	eng := gedlib.New()
	plain := sigma[2]
	proof, err := eng.Prove(ctx, gedlib.RuleSet{plain}, plain)
	if err != nil {
		t.Fatal(err)
	}
	g := gedlib.NewGraph()
	g.AddNodeAttrs("account", map[gedlib.Attr]gedlib.Value{"flag": gedlib.Int(2)})
	for _, other := range sigma[:2] {
		with := gedlib.RuleSet{plain, other}
		retargeted := *proof
		retargeted.Target = other
		q := &gedlib.Query{Pattern: other.Pattern}
		calls := map[string]func() error{
			"Chase":         func() error { _, err := eng.Chase(ctx, g, with); return err },
			"Repair":        func() error { _, err := eng.Repair(ctx, g, with); return err },
			"Prove(Σ)":      func() error { _, err := eng.Prove(ctx, with, plain); return err },
			"Prove(φ)":      func() error { _, err := eng.Prove(ctx, gedlib.RuleSet{plain}, other); return err },
			"CheckProof(Σ)": func() error { return eng.CheckProof(ctx, with, proof) },
			"CheckProof(φ)": func() error { return eng.CheckProof(ctx, gedlib.RuleSet{plain}, &retargeted) },
			"OptimizeQuery": func() error { _, err := eng.OptimizeQuery(ctx, q, with); return err },
		}
		for i := range proof.Steps {
			tampered := *proof
			tampered.Steps = append(proof.Steps[:0:0], proof.Steps...)
			tampered.Steps[i].Concl = other
			calls[fmt.Sprintf("CheckProof(step %d)", i+1)] = func() error { return eng.CheckProof(ctx, gedlib.RuleSet{plain}, &tampered) }
		}
		for name, call := range calls {
			if err := call(); !errors.Is(err, gedlib.ErrNotGED) {
				t.Errorf("%s with a %s: err = %v, want ErrNotGED", name, other.Form(), err)
			}
		}
		vs, err := eng.Validate(ctx, g, with)
		if err != nil || len(vs) != len(oracleViolations(g, with)) {
			t.Errorf("Validate with a %s: %d violations, %v", other.Form(), len(vs), err)
		}
		if r, err := eng.CheckSat(ctx, with); err != nil || !r.Satisfiable || !gedlib.IsModel(r.Model, with) {
			t.Errorf("CheckSat with a %s: %+v, %v", other.Form(), r, err)
		}
		if r, err := eng.Implies(ctx, with, plain); err != nil || !r.Implied {
			t.Errorf("Implies of a member of Σ with a %s: %+v, %v", other.Form(), r, err)
		}
		r, err := eng.Implies(ctx, gedlib.RuleSet{plain}, other)
		if err != nil || r.Implied {
			t.Fatalf("Implies of a %s by a GED it does not follow from: %+v, %v", other.Form(), r, err)
		}
		if ce := r.Counterexample(); !gedlib.Satisfies(ce, gedlib.RuleSet{plain}) || gedlib.Satisfies(ce, gedlib.RuleSet{other}) {
			t.Errorf("Implies of a %s: the counterexample is not one:\n%s", other.Form(), ce)
		}
	}
	// Every form mixed in one Σ: satisfiable, and Σ implies its own GED∨.
	if r, err := eng.CheckSat(ctx, sigma); err != nil || !r.Satisfiable || !gedlib.IsModel(r.Model, sigma) {
		t.Errorf("CheckSat of all three forms: %+v, %v", r, err)
	}
	if r, err := eng.Implies(ctx, sigma, sigma[1]); err != nil || !r.Implied {
		t.Errorf("Implies with a GDC: %+v, %v", r, err)
	}
}
