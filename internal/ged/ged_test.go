package ged

import (
	"errors"
	"strings"
	"testing"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

func q1() *pattern.Pattern {
	p := pattern.New()
	p.AddVar("x", "person").AddVar("y", "product")
	p.AddEdge("x", "create", "y")
	return p
}

func TestOpEval(t *testing.T) {
	a, b := graph.Int(1), graph.Int(2)
	cases := []struct {
		op   Op
		x, y graph.Value
		want bool
	}{
		{OpEq, a, a, true}, {OpEq, a, b, false},
		{OpNe, a, b, true}, {OpNe, a, a, false},
		{OpLt, a, b, true}, {OpLt, b, a, false}, {OpLt, a, a, false},
		{OpLe, a, a, true}, {OpLe, a, b, true}, {OpLe, b, a, false},
		{OpGt, b, a, true}, {OpGt, a, b, false},
		{OpGe, a, a, true}, {OpGe, b, a, true}, {OpGe, a, b, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.want {
			t.Errorf("%s.Eval(%s, %s) = %v, want %v", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestOpFlipNegate(t *testing.T) {
	vals := []graph.Value{graph.Int(1), graph.Int(2), graph.Int(3)}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				if op.Eval(a, b) != op.Flip().Eval(b, a) {
					t.Errorf("flip law fails for %s on (%s,%s)", op, a, b)
				}
				if op.Eval(a, b) == op.Negate().Eval(a, b) {
					t.Errorf("negate law fails for %s on (%s,%s)", op, a, b)
				}
			}
		}
	}
}

func TestLiteralKinds(t *testing.T) {
	cases := []struct {
		l    Literal
		want LiteralKind
		ok   bool
	}{
		{ConstLit("x", "type", graph.String("video game")), ConstLiteral, true},
		{VarLit("x", "name", "y", "name"), VarLiteral, true},
		{IDLit("x", "y"), IDLiteral, true},
		{Cmp("x", "age", OpLt, graph.Int(5)), 0, false},
		{Literal{Left: Const(graph.Int(1)), Right: Const(graph.Int(2)), Op: OpEq}, 0, false},
		{Literal{Left: Const(graph.Int(1)), Right: AttrOf("x", "a"), Op: OpEq}, 0, false},
	}
	for _, c := range cases {
		k, ok := c.l.Kind()
		if ok != c.ok || (ok && k != c.want) {
			t.Errorf("Kind(%s) = (%v,%v), want (%v,%v)", c.l, k, ok, c.want, c.ok)
		}
	}
}

func TestLiteralStringAndVars(t *testing.T) {
	l := VarLit("x", "name", "y", "title")
	if l.String() != "x.name = y.title" {
		t.Errorf("String = %q", l.String())
	}
	if vs := l.Vars(); len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Errorf("Vars = %v", vs)
	}
	self := VarLit("x", "a", "x", "b")
	if vs := self.Vars(); len(vs) != 1 || vs[0] != "x" {
		t.Errorf("self Vars = %v", vs)
	}
	c := ConstLit("x", "t", graph.String("v"))
	if vs := c.Vars(); len(vs) != 1 {
		t.Errorf("const Vars = %v", vs)
	}
	if got := Cmp("x", "age", OpGe, graph.Int(3)).String(); got != "x.age >= 3" {
		t.Errorf("cmp String = %q", got)
	}
	if got := IDLit("x", "y").String(); got != "x.id = y.id" {
		t.Errorf("id String = %q", got)
	}
}

func TestLiteralFlip(t *testing.T) {
	l := Cmp("x", "a", OpLt, graph.Int(5))
	f := l.Flip()
	if f.Op != OpGt || f.Left.Kind != OperandConst || f.Right != AttrOf("x", "a") {
		t.Errorf("Flip = %v", f)
	}
	eq := VarLit("x", "a", "y", "b").Flip()
	if eq.Left != AttrOf("y", "b") || eq.Op != OpEq {
		t.Errorf("eq Flip = %v", eq)
	}
}

func TestGEDValidate(t *testing.T) {
	ok := New("phi1", q1(),
		[]Literal{ConstLit("x", "type", graph.String("video game"))},
		[]Literal{ConstLit("y", "type", graph.String("programmer"))})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid GED rejected: %v", err)
	}
	badVar := New("bad", q1(), nil, []Literal{ConstLit("z", "a", graph.Int(1))})
	if badVar.Validate() == nil {
		t.Error("unknown variable accepted")
	}
	lt := New("lt", q1(), []Literal{Cmp("x", "a", OpLt, graph.Int(1))}, nil)
	if err := lt.Validate(); err != nil || lt.Form() != FormGDC {
		t.Errorf("GDC literal: Validate = %v, Form = %v", err, lt.Form())
	}
	orderedID := New("bad", q1(), nil, []Literal{{Left: ID("x"), Right: ID("y"), Op: OpLt}})
	if orderedID.Validate() == nil {
		t.Error("ordered id literal accepted")
	}
	cmpOr := New("bad", q1(), nil, []Literal{Cmp("x", "a", OpLt, graph.Int(1)), ConstLit("y", "a", graph.Int(1))})
	cmpOr.Disjunctive = true
	if cmpOr.Validate() == nil {
		t.Error("comparison accepted in a disjunction")
	}
	badID := New("bad", q1(), nil, []Literal{ConstLit("x", "id", graph.Int(1))})
	if badID.Validate() == nil {
		t.Error("id used as plain attribute accepted")
	}
}

func TestForm(t *testing.T) {
	lt := Cmp("x", "a", OpLt, graph.Int(1))
	eq := ConstLit("x", "a", graph.Int(1))
	or := New("or", q1(), nil, []Literal{eq, IDLit("x", "y")})
	or.Disjunctive = true
	for _, c := range []struct {
		g    *GED
		want Form
	}{
		{New("ged", q1(), []Literal{eq}, []Literal{IDLit("x", "y")}), FormGED},
		{New("gdc-x", q1(), []Literal{lt}, nil), FormGDC},
		{New("gdc-y", q1(), nil, []Literal{eq, lt}), FormGDC},
		{or, FormGEDor},
	} {
		if got := c.g.Form(); got != c.want {
			t.Errorf("%s: Form = %v, want %v", c.g.Name, got, c.want)
		}
		err := RequireGED(c.g)
		if (err == nil) != (c.want == FormGED) || (err != nil && !errors.Is(err, ErrNotGED)) {
			t.Errorf("%s: RequireGED = %v", c.g.Name, err)
		}
	}
	if got := or.String(); got != "or: (x:person)-[create]->(y:product) (true -> x.a = 1 || x.id = y.id)" {
		t.Errorf("disjunctive String = %q", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		x, y []Literal
		want Class
	}{
		{"gfdx", []Literal{VarLit("x", "a", "y", "a")}, []Literal{VarLit("x", "b", "y", "b")}, ClassGFDx},
		{"gfd", []Literal{ConstLit("x", "a", graph.Int(1))}, []Literal{VarLit("x", "b", "y", "b")}, ClassGFD},
		{"gedx", []Literal{VarLit("x", "a", "y", "a")}, []Literal{IDLit("x", "y")}, ClassGEDx},
		{"ged", []Literal{ConstLit("x", "a", graph.Int(1))}, []Literal{IDLit("x", "y")}, ClassGED},
		{"empty", nil, nil, ClassGFDx},
	}
	for _, c := range cases {
		g := New(c.name, q1(), c.x, c.y)
		if got := g.Classify(); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSetClassify(t *testing.T) {
	gfd := New("a", q1(), []Literal{ConstLit("x", "a", graph.Int(1))}, nil)
	gedx := New("b", q1(), nil, []Literal{IDLit("x", "y")})
	s := Set{gfd, gedx}
	if s.Classify() != ClassGED {
		t.Errorf("mixed set must classify as GED, got %v", s.Classify())
	}
	if (Set{gfd}).Classify() != ClassGFD {
		t.Error("singleton GFD set")
	}
	if (Set{}).Classify() != ClassGFDx {
		t.Error("empty set must be GFDx")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{ClassGED: "GED", ClassGFD: "GFD", ClassGEDx: "GEDx", ClassGFDx: "GFDx"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %s, want %s", c, c.String(), want)
		}
	}
}

func TestForbiddingFalse(t *testing.T) {
	f := False("y")
	if len(f) != 2 {
		t.Fatal("False must desugar to two literals")
	}
	if !IsFalse(f) {
		t.Error("IsFalse(False(y)) = false")
	}
	g := New("phi4", q1(), nil, f)
	if !g.IsForbidding() {
		t.Error("forbidding GED not recognized")
	}
	if IsFalse([]Literal{ConstLit("y", FalseAttr, graph.Int(0))}) {
		t.Error("single _F literal is not false")
	}
	if IsFalse([]Literal{ConstLit("y", "a", graph.Int(0)), ConstLit("y", "a", graph.Int(1))}) {
		t.Error("only the reserved attribute desugars false")
	}
	// Distinct anchors do not make false.
	mixed := []Literal{ConstLit("y", FalseAttr, graph.Int(0)), ConstLit("z", FalseAttr, graph.Int(1))}
	if IsFalse(mixed) {
		t.Error("false literals on distinct variables must not combine")
	}
}

func TestGEDString(t *testing.T) {
	g := New("phi1", q1(),
		[]Literal{ConstLit("x", "type", graph.String("video game"))},
		[]Literal{ConstLit("y", "type", graph.String("programmer"))})
	s := g.String()
	for _, want := range []string{"phi1:", "(x:person)-[create]->(y:product)", `x.type = "video game"`, "->", `y.type = "programmer"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	empty := New("", q1(), nil, nil)
	if !strings.Contains(empty.String(), "true -> true") {
		t.Errorf("empty sides must render as true: %q", empty.String())
	}
}

func TestCanonicalGraph(t *testing.T) {
	g1 := New("a", q1(), nil, nil)
	p2 := pattern.New()
	p2.AddVar("x", "country")
	g2 := New("b", p2, nil, nil)
	s := Set{g1, g2}
	gs, maps := s.CanonicalGraph()
	if gs.NumNodes() != 3 || gs.NumEdges() != 1 {
		t.Fatalf("G_Sigma shape: %d nodes %d edges", gs.NumNodes(), gs.NumEdges())
	}
	// Patterns are disjoint even though both use variable x.
	if maps[0]["x"] == maps[1]["x"] {
		t.Error("canonical graph must keep patterns disjoint")
	}
	if gs.Label(maps[0]["x"]) != "person" || gs.Label(maps[1]["x"]) != "country" {
		t.Error("canonical graph labels wrong")
	}
	if gs.NumAttrs(maps[0]["x"]) != 0 {
		t.Error("canonical graph attribute map must be empty")
	}
}

func TestSetSize(t *testing.T) {
	g := New("a", q1(), []Literal{ConstLit("x", "a", graph.Int(1))}, []Literal{IDLit("x", "y")})
	s := Set{g}
	// pattern size 3 + 1 X literal + 1 Y literal
	if s.Size() != 5 {
		t.Errorf("Size = %d, want 5", s.Size())
	}
}

func TestNewGKeyAlbum(t *testing.T) {
	// ψ2 of Example 3: album identified by title and release.
	q := pattern.New()
	q.AddVar("x", "album")
	k, err := NewGKey("psi2", q, "x", func(x, fx pattern.Var) []Literal {
		return []Literal{
			VarLit(x, "title", fx, "title"),
			VarLit(x, "release", fx, "release"),
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Pattern.NumVars() != 2 {
		t.Fatalf("GKey pattern vars = %d, want 2", k.Pattern.NumVars())
	}
	if len(k.X) != 2 || len(k.Y) != 1 {
		t.Fatalf("GKey FD shape: |X|=%d |Y|=%d", len(k.X), len(k.Y))
	}
	if !IsGKey(k) {
		t.Error("NewGKey result not recognized by IsGKey")
	}
	if k.Classify() != ClassGEDx {
		t.Errorf("variable-literal GKey should classify GEDx, got %v", k.Classify())
	}
}

func TestNewGKeyRecursive(t *testing.T) {
	// ψ1/ψ3 of Example 3: album + artist with recursive id antecedents.
	q := pattern.New()
	q.AddVar("x", "album").AddVar("x2", "artist")
	q.AddEdge("x", "by", "x2")
	k, err := NewGKey("psi1", q, "x", func(x, fx pattern.Var) []Literal {
		if x == "x" {
			return []Literal{VarLit(x, "title", fx, "title")}
		}
		return []Literal{IDLit(x, fx)} // identify artists by id
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsGKey(k) {
		t.Error("recursive GKey not recognized")
	}
	// The copy must mirror the by-edge.
	found := 0
	for _, e := range k.Pattern.Edges() {
		if e.Label == "by" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("copy must duplicate edges: found %d by-edges, want 2", found)
	}
}

func TestNewGKeyBadDesignated(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "album")
	if _, err := NewGKey("bad", q, "nope", nil); err == nil {
		t.Error("unknown designated node accepted")
	}
}

func TestIsGKeyRejects(t *testing.T) {
	// A plain GED with an id consequent but no copy structure.
	p := pattern.New()
	p.AddVar("x", "a").AddVar("y", "b")
	g := New("notkey", p, nil, []Literal{IDLit("x", "y")})
	if IsGKey(g) {
		t.Error("non-copy pattern accepted as GKey")
	}
	// Two consequent literals.
	q := pattern.New()
	q.AddVar("x", "a")
	k, err := NewGKey("k", q, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Y = append(k.Y, VarLit("x", "a", "x'", "a"))
	if IsGKey(k) {
		t.Error("multi-literal consequent accepted as GKey")
	}
}
