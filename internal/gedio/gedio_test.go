package gedio

import (
	"strings"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/reason"
)

func TestJSONRoundTrip(t *testing.T) {
	g := graph.New()
	a := g.AddNodeAttrs("person", map[graph.Attr]graph.Value{
		"name": graph.String("Ada"), "age": graph.Int(36)})
	b := g.AddNode("city")
	g.AddEdge(a, "born_in", b)

	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, ids, err := UnmarshalGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 2 || g2.NumEdges() != 1 {
		t.Fatal("round-trip shape wrong")
	}
	if v, ok := g2.Attr(ids["n0"], "name"); !ok || !v.Equal(graph.String("Ada")) {
		t.Error("string attr lost")
	}
	if v, ok := g2.Attr(ids["n0"], "age"); !ok || !v.Equal(graph.Int(36)) {
		t.Error("numeric attr lost")
	}
	if !g2.HasEdge(ids["n0"], "born_in", ids["n1"]) {
		t.Error("edge lost")
	}
	// Marshalling is deterministic.
	data2, _ := MarshalGraph(g)
	if string(data) != string(data2) {
		t.Error("marshal not deterministic")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{"nodes": [{"id": "a", "label": "x"}, {"id": "a", "label": "y"}]}`,
		`{"nodes": [{"id": "a", "label": "x"}], "edges": [{"src": "a", "label": "e", "dst": "zz"}]}`,
		`{"nodes": [{"id": "a", "label": "x", "attrs": {"k": [1,2]}}]}`,
		`not json`,
	}
	for i, c := range cases {
		if _, _, err := UnmarshalGraph([]byte(c)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestUnmarshalBool(t *testing.T) {
	g, ids, err := UnmarshalGraph([]byte(`{"nodes": [{"id": "a", "label": "x", "attrs": {"fake": true}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g.Attr(ids["a"], "fake"); !v.Equal(graph.Int(1)) {
		t.Error("bool must encode as 1")
	}
}

const phi1Src = `
# a video game can only be created by programmers
ged phi1 on (x:person)-[create]->(y:product) {
  when y.type = "video game"
  then x.type = "programmer"
}
`

func TestParsePhi1(t *testing.T) {
	rules, err := Parse(phi1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules", len(rules))
	}
	g := rules[0]
	if f, err := g.Form(), g.Validate(); f != ged.FormGED || err != nil {
		t.Fatalf("parsed a %s (%v), want a valid GED", f, err)
	}
	if g.Name != "phi1" || len(g.X) != 1 || len(g.Y) != 1 {
		t.Errorf("parsed GED wrong: %s", g)
	}
	if g.Pattern.Label("x") != "person" || g.Pattern.Label("y") != "product" {
		t.Error("pattern labels wrong")
	}
	if g.Classify() != ged.ClassGFD {
		t.Errorf("phi1 must be a GFD, got %v", g.Classify())
	}

	// End-to-end: catches the Ghetto Blaster inconsistency.
	gr := graph.New()
	p := gr.AddNodeAttrs("person", map[graph.Attr]graph.Value{"type": graph.String("psychologist")})
	pr := gr.AddNodeAttrs("product", map[graph.Attr]graph.Value{"type": graph.String("video game")})
	gr.AddEdge(p, "create", pr)
	if reason.Satisfies(gr, ged.Set{g}) {
		t.Error("parsed rule must catch the violation")
	}
}

func TestParseMultiEdgeChainAndSharedVars(t *testing.T) {
	src := `
ged twoCaps on (x:country)-[capital]->(y:city), (x)-[capital]->(z:city) {
  then y.name = z.name
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := rules[0]
	if f, err := g.Form(), g.Validate(); f != ged.FormGED || err != nil {
		t.Fatalf("parsed a %s (%v), want a valid GED", f, err)
	}
	if g.Pattern.NumVars() != 3 || len(g.Pattern.Edges()) != 2 {
		t.Errorf("pattern shape: %d vars %d edges", g.Pattern.NumVars(), len(g.Pattern.Edges()))
	}
}

func TestParseIDLiteralAndWildcard(t *testing.T) {
	src := `
ged key on (x:album), (y:album) {
  when x.title = y.title and x.release = y.release
  then x.id = y.id
}
ged inherit on (y)-[is_a]->(x) {
  when x.can_fly = x.can_fly
  then y.can_fly = x.can_fly
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	key := rules[0]
	if f, err := key.Form(), key.Validate(); f != ged.FormGED || err != nil {
		t.Fatalf("parsed a %s (%v), want a valid GED", f, err)
	}
	if k, _ := key.Y[0].Kind(); k != ged.IDLiteral {
		t.Error("id literal not parsed")
	}
	inherit := rules[1]
	if f, err := inherit.Form(), inherit.Validate(); f != ged.FormGED || err != nil {
		t.Fatalf("parsed a %s (%v), want a valid GED", f, err)
	}
	if inherit.Pattern.Label("x") != graph.Wildcard {
		t.Error("unlabeled node must be wildcard")
	}
}

func TestParseFalse(t *testing.T) {
	src := `
ged noCycle on (x:person)-[child]->(y:person), (x)-[parent]->(y) {
  then false
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := rules[0]
	if f, err := g.Form(), g.Validate(); f != ged.FormGED || err != nil {
		t.Fatalf("parsed a %s (%v), want a valid GED", f, err)
	}
	if !g.IsForbidding() {
		t.Error("false must desugar to a forbidding constraint")
	}
}

func TestParseGDC(t *testing.T) {
	src := `
ged bound on (x:emp) {
  when x.salary > 100 and x.salary <= 200
  then false
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := rules[0]
	if f := d.Form(); f != ged.FormGDC {
		t.Fatalf("comparisons not detected: parsed a %s", f)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	gr := graph.New()
	gr.AddNodeAttrs("emp", map[graph.Attr]graph.Value{"salary": graph.Int(150)})
	if reason.Satisfies(gr, ged.Set{d}) {
		t.Error("salary in (100, 200] must violate")
	}
	gr2 := graph.New()
	gr2.AddNodeAttrs("emp", map[graph.Attr]graph.Value{"salary": graph.Int(250)})
	if !reason.Satisfies(gr2, ged.Set{d}) {
		t.Error("salary 250 must satisfy")
	}
}

func TestParseDisjunction(t *testing.T) {
	src := `
ged domain on (x:account) {
  then x.flag = 0 or x.flag = 1
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := rules[0]
	if !d.Disjunctive || d.Form() != ged.FormGEDor {
		t.Fatalf("disjunction not detected: parsed a %s", d.Form())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	gr := graph.New()
	gr.AddNodeAttrs("account", map[graph.Attr]graph.Value{"flag": graph.Int(1)})
	if !reason.Satisfies(gr, ged.Set{d}) {
		t.Error("flag = 1 must satisfy the domain")
	}
	gr.SetAttr(0, "flag", graph.Int(5))
	if reason.Satisfies(gr, ged.Set{d}) {
		t.Error("flag = 5 must violate the domain")
	}
}

// TestParseShortDisjunctions: or() and or(l) are GED∨s, and Format
// writes a short disjunction in that spelling, so the bit survives.
func TestParseShortDisjunctions(t *testing.T) {
	src := `
ged none on (x:account) { when x.flag = 2 then or() }
ged one on (x:account) { then or(x.flag = 0) }
ged two on (x:account) { then or(x.flag = 0, x.flag = 1) }
ged var on (or:account) { then or.flag = 0 }
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		form ged.Form
		n    int
	}{{ged.FormGEDor, 0}, {ged.FormGEDor, 1}, {ged.FormGEDor, 2}, {ged.FormGED, 1}} {
		if r := rules[i]; r.Form() != want.form || len(r.Y) != want.n {
			t.Errorf("rule %s: a %s with %d literals, want a %s with %d", r.Name, r.Form(), len(r.Y), want.form, want.n)
		}
	}
	text := Format(rules)
	again, err := Parse(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	for i, r := range rules {
		if again[i].String() != r.String() || again[i].Form() != r.Form() {
			t.Errorf("rule %s changed through Format:\n%s", r.Name, text)
		}
	}
	if _, err := Parse(`ged r on (x:a) { then or(false) }`); err == nil {
		t.Error("false inside or() accepted")
	}
	for _, src := range []string{
		`ged r on (x:a) { then false or x.a = 1 }`,
		`ged r on (x:a) { then x.a = 1 or false }`,
		`ged r on (x:a) { then x.a = 1 or x.b = 2 or false }`,
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "`false` inside or()") {
			t.Errorf("%s: err %v, want false rejected as a disjunct", src, err)
		}
	}
	for _, src := range []string{
		`ged r on (x:a) { then false and x.a = 1 }`,
		`ged r on (x:a) { then x.a = 1 and false }`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v, want false accepted in a conjunction", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`ged on (x:a) { }`,              // missing name
		`ged r (x:a) { }`,               // missing on
		`ged r on (x:a) { when x.a = }`, // missing operand
		`ged r on (x:a { }`,             // bad pattern
		`ged r on (x:a) { then x.a = 1 or x.b = 2 and x.c = 3 }`,  // mixed and/or
		`ged r on (x:a) { when x.a = 1 or x.b = 2 then x.c = 3 }`, // or in when
		`ged r on (x:a)-[e]->(x:b) { }`,                           // relabel
		`ged r on (x:a) { when x.a = "unterminated }`,
	}
	for i, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: bad input accepted: %s", i, c)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	rules, err := Parse(phi1Src)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(rules)
	rules2, err := Parse(text)
	if err != nil {
		t.Fatalf("printer output does not re-parse: %v\n%s", err, text)
	}
	g1, g2 := rules[0], rules2[0]
	if g1.String() != g2.String() {
		t.Errorf("round trip changed the rule:\n%s\nvs\n%s", g1, g2)
	}
}

func TestParseMultipleRules(t *testing.T) {
	src := phi1Src + `
ged second on (a:x) {
  then a.k = 1
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	for _, r := range rules {
		if f := r.Form(); f != ged.FormGED {
			t.Errorf("rule %s parsed as a %s, want a GED", r.Name, f)
		}
	}
}

func TestParsePrimedVars(t *testing.T) {
	// GKey copies use primed variables; the lexer must accept them.
	src := `
ged k on (x:album), (x':album) {
  when x.title = x'.title
  then x.id = x'.id
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := rules[0]
	if f, err := g.Form(), g.Validate(); f != ged.FormGED || err != nil {
		t.Fatalf("parsed a %s (%v), want a valid GED", f, err)
	}
	if !ged.IsGKey(g) {
		t.Error("parsed primed rule should be recognized as a GKey")
	}
}
