package gedio

import (
	"fmt"
	"math/rand"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// randomRule builds a random parsed rule directly (bypassing the
// parser), to exercise Format → Parse round-trips from arbitrary inputs.
func randomRule(rng *rand.Rand, idx int) *ged.GED {
	labels := []graph.Label{"person", "product", "account", graph.Wildcard}
	attrs := []graph.Attr{"name", "age", "kind"}
	edges := []graph.Label{"knows", "likes", "owns"}
	p := pattern.New()
	n := 1 + rng.Intn(3)
	vars := make([]pattern.Var, n)
	for i := range vars {
		vars[i] = pattern.Var(fmt.Sprintf("v%d", i))
		p.AddVar(vars[i], labels[rng.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		if rng.Intn(3) > 0 {
			p.AddEdge(vars[rng.Intn(i)], edges[rng.Intn(len(edges))], vars[i])
		}
	}
	rv := func() pattern.Var { return vars[rng.Intn(n)] }
	ra := func() graph.Attr { return attrs[rng.Intn(len(attrs))] }
	randLit := func(ops bool) ged.Literal {
		op := ged.OpEq
		if ops {
			op = []ged.Op{ged.OpEq, ged.OpNe, ged.OpLt, ged.OpLe, ged.OpGt, ged.OpGe}[rng.Intn(6)]
		}
		switch rng.Intn(3) {
		case 0:
			if rng.Intn(2) == 0 {
				return ged.Cmp(rv(), ra(), op, graph.Int(rng.Intn(10)))
			}
			return ged.Cmp(rv(), ra(), op, graph.String(fmt.Sprintf("s%d", rng.Intn(5))))
		case 1:
			return ged.CmpVars(rv(), ra(), op, rv(), ra())
		default:
			return ged.IDLit(rv(), rv())
		}
	}
	r := &ged.GED{Name: fmt.Sprintf("r%d", idx), Pattern: p}
	useOps := rng.Intn(3) == 0
	for i := 0; i < rng.Intn(3); i++ {
		r.X = append(r.X, randLit(useOps))
	}
	k := 1 + rng.Intn(2)
	for i := 0; i < k; i++ {
		r.Y = append(r.Y, randLit(false))
	}
	if k > 1 && rng.Intn(2) == 0 {
		r.Disjunctive = true
	}
	return r
}

// TestFormatParseRoundTripRandom: Format output always re-parses to an
// equivalent rule.
func TestFormatParseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 150; trial++ {
		r := randomRule(rng, trial)
		text := Format(ged.Set{r})
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: printer output rejected: %v\n%s", trial, err, text)
		}
		if len(parsed) != 1 {
			t.Fatalf("trial %d: %d rules from one", trial, len(parsed))
		}
		p := parsed[0]
		if p.Name != r.Name || p.Disjunctive != r.Disjunctive {
			t.Fatalf("trial %d: header changed\n%s", trial, text)
		}
		if len(p.X) != len(r.X) || len(p.Y) != len(r.Y) {
			t.Fatalf("trial %d: literal counts changed\n%s", trial, text)
		}
		for i := range r.X {
			if p.X[i] != r.X[i] {
				t.Fatalf("trial %d: X[%d] changed: %v vs %v\n%s", trial, i, r.X[i], p.X[i], text)
			}
		}
		for i := range r.Y {
			if p.Y[i] != r.Y[i] {
				t.Fatalf("trial %d: Y[%d] changed: %v vs %v\n%s", trial, i, r.Y[i], p.Y[i], text)
			}
		}
		// Patterns: same vars, labels and edge multiset.
		if p.Pattern.NumVars() != r.Pattern.NumVars() || len(p.Pattern.Edges()) != len(r.Pattern.Edges()) {
			t.Fatalf("trial %d: pattern shape changed\n%s", trial, text)
		}
		for _, v := range r.Pattern.Vars() {
			if p.Pattern.Label(v) != r.Pattern.Label(v) {
				t.Fatalf("trial %d: label of %s changed\n%s", trial, v, text)
			}
		}
	}
}

// TestJSONRoundTripRandom: MarshalGraph ∘ UnmarshalGraph is the identity
// on random graphs.
func TestJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 50; trial++ {
		g := graph.New()
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			id := g.AddNode(graph.Label(fmt.Sprintf("l%d", rng.Intn(3))))
			if rng.Intn(2) == 0 {
				g.SetAttr(id, "num", graph.Number(rng.Float64()*100))
			}
			if rng.Intn(2) == 0 {
				g.SetAttr(id, "str", graph.String(fmt.Sprintf("v%d", rng.Intn(5))))
			}
		}
		for i := 0; i < 2*n; i++ {
			if rng.Intn(2) == 0 {
				g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
			}
		}
		data, err := MarshalGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		g2, _, err := UnmarshalGraph(data)
		if err != nil {
			t.Fatal(err)
		}
		if g.String() != g2.String() {
			t.Fatalf("trial %d: round trip changed the graph:\n%s\nvs\n%s", trial, g, g2)
		}
	}
}

// TestFormatQuotedConstants: constants Format must escape or spell out
// come back from Parse unchanged, and a bad escape is rejected.
func TestFormatQuotedConstants(t *testing.T) {
	p := pattern.New()
	p.AddVar("x", "a")
	for _, c := range []graph.Value{
		graph.String("a\tb"), graph.String("line\nbreak"), graph.String("\x03"),
		graph.String(`q"uo`), graph.String(`back\slash`), graph.String("é"),
		graph.Number(1e23), graph.Number(-0.5), graph.Number(1e-7),
	} {
		r := ged.New("c", p, nil, []ged.Literal{ged.ConstLit("x", "s", c)})
		text := Format(ged.Set{r})
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%v: printer output rejected: %v\n%s", c, err, text)
		}
		if got := again[0].Y[0].Right.Const; got != c {
			t.Errorf("%v came back as %v\n%s", c, got, text)
		}
	}
	if _, err := Parse(`ged r on (x:a) { then x.s = "\q" }`); err == nil {
		t.Error(`bad escape \q accepted`)
	}
}
