package gen

import (
	"fmt"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// This file encodes the worked dependencies of the paper — the GEDs
// φ₁–φ₅ of Example 3 over the patterns Q₁–Q₅ of Figure 1, and the keys
// ψ₁–ψ₃ over Q₆/Q₇ — as reusable constructors shared by tests, examples
// and benchmarks.

// PaperPhi1 is φ₁ = Q₁[x,y](x.type = "video game" → y.type =
// "programmer"): a video game can only be created by programmers. Note
// the paper binds the constant literal to the product's type in X and
// the person's in Y; variable x is the person, y the product.
func PaperPhi1() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "person").AddVar("y", "product")
	q.AddEdge("x", "create", "y")
	return ged.New("phi1", q,
		[]ged.Literal{ged.ConstLit("y", "type", graph.String("video game"))},
		[]ged.Literal{ged.ConstLit("x", "type", graph.String("programmer"))})
}

// PaperPhi2 is φ₂ = Q₂[x,y,z](∅ → y.name = z.name): two capitals of one
// country carry the same name.
func PaperPhi2() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "country").AddVar("y", "city").AddVar("z", "city")
	q.AddEdge("x", "capital", "y")
	q.AddEdge("x", "capital", "z")
	return ged.New("phi2", q, nil, []ged.Literal{ged.VarLit("y", "name", "z", "name")})
}

// InheritAttr is the attribute propagated by φ₃.
const InheritAttr graph.Attr = "can_fly"

// PaperPhi3 is φ₃ = Q₃[x,y](x.A = x.A → y.A = x.A): if y is_a x and x
// has attribute A, then y inherits x.A. Both variables are wildcards —
// the rule applies to generic entities.
func PaperPhi3() *ged.GED {
	q := pattern.New()
	q.AddVar("x", graph.Wildcard).AddVar("y", graph.Wildcard)
	q.AddEdge("y", "is_a", "x")
	return ged.New("phi3", q,
		[]ged.Literal{ged.VarLit("x", InheritAttr, "x", InheritAttr)},
		[]ged.Literal{ged.VarLit("y", InheritAttr, "x", InheritAttr)})
}

// PaperPhi4 is φ₄ = Q₄[x,y](∅ → false): no person is both a child and a
// parent of another person.
func PaperPhi4() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "person").AddVar("y", "person")
	q.AddEdge("x", "child", "y")
	q.AddEdge("x", "parent", "y")
	return ged.New("phi4", q, nil, ged.False("x"))
}

// SpamKeyword is the peculiar keyword c of the spam rule φ₅.
const SpamKeyword = "peculiar-keyword"

// PaperPhi5 is φ₅ over Q₅ with k liked blogs: accounts x, x′ both like
// blogs y₁..y_k, x posts z₁, x′ posts z₂; if x′ is confirmed fake and
// z₁, z₂ share the peculiar keyword, then x is fake too.
func PaperPhi5(k int) *ged.GED {
	q := pattern.New()
	q.AddVar("x", "account").AddVar("x'", "account")
	q.AddVar("z1", "blog").AddVar("z2", "blog")
	q.AddEdge("x", "post", "z1")
	q.AddEdge("x'", "post", "z2")
	for i := 0; i < k; i++ {
		y := pattern.Var("y" + string(rune('1'+i)))
		q.AddVar(y, "blog")
		q.AddEdge("x", "like", y)
		q.AddEdge("x'", "like", y)
	}
	return ged.New("phi5", q,
		[]ged.Literal{
			ged.ConstLit("x'", "is_fake", graph.Int(1)),
			ged.ConstLit("z1", "keyword", graph.String(SpamKeyword)),
			ged.ConstLit("z2", "keyword", graph.String(SpamKeyword)),
		},
		[]ged.Literal{ged.ConstLit("x", "is_fake", graph.Int(1))})
}

// albumArtistPattern is Q₆'s first half: an album recorded by an artist.
func albumArtistPattern() *pattern.Pattern {
	q := pattern.New()
	q.AddVar("x", "album").AddVar("z", "artist")
	q.AddEdge("x", "by", "z")
	return q
}

// PaperPsi1 is ψ₁: an album is identified by its title and the id of its
// primary artist (a recursive key — it presupposes artist identity).
func PaperPsi1() *ged.GED {
	k, err := ged.NewGKey("psi1", albumArtistPattern(), "x", func(x, fx pattern.Var) []ged.Literal {
		if x == "x" {
			return []ged.Literal{ged.VarLit(x, "title", fx, "title")}
		}
		return []ged.Literal{ged.IDLit(x, fx)}
	})
	if err != nil {
		panic(err)
	}
	return k
}

// PaperPsi2 is ψ₂: an album is identified by its title and the year of
// initial release.
func PaperPsi2() *ged.GED {
	q := pattern.New()
	q.AddVar("x", "album")
	k, err := ged.NewGKey("psi2", q, "x", func(x, fx pattern.Var) []ged.Literal {
		return []ged.Literal{
			ged.VarLit(x, "title", fx, "title"),
			ged.VarLit(x, "release", fx, "release"),
		}
	})
	if err != nil {
		panic(err)
	}
	return k
}

// PaperPsi3 is ψ₃: an artist is identified by name and the id of an
// album they recorded (recursive with ψ₁).
func PaperPsi3() *ged.GED {
	k, err := ged.NewGKey("psi3", albumArtistPattern(), "z", func(x, fx pattern.Var) []ged.Literal {
		if x == "z" {
			return []ged.Literal{ged.VarLit(x, "name", fx, "name")}
		}
		return []ged.Literal{ged.IDLit(x, fx)}
	})
	if err != nil {
		panic(err)
	}
	return k
}

// PaperKeys returns {ψ₁, ψ₂, ψ₃}, the recursively-defined keys of
// Example 1(3).
func PaperKeys() ged.Set {
	return ged.Set{PaperPsi1(), PaperPsi2(), PaperPsi3()}
}

// PaperGEDs returns {φ₁..φ₅} with k = 2 liked blogs in φ₅.
func PaperGEDs() ged.Set {
	return ged.Set{PaperPhi1(), PaperPhi2(), PaperPhi3(), PaperPhi4(), PaperPhi5(2)}
}

// DomainGDCs returns the two GDCs of Example 9 that keep attribute a of
// every tau-labeled node within the given constants: the first
// generates the attribute, the second forbids every other value.
func DomainGDCs(tau graph.Label, a graph.Attr, domain ...graph.Value) ged.Set {
	q1 := pattern.New()
	q1.AddVar("x", tau)
	q2 := pattern.New()
	q2.AddVar("x", tau)
	var xs []ged.Literal
	for _, v := range domain {
		xs = append(xs, ged.Cmp("x", a, ged.OpNe, v))
	}
	return ged.Set{
		ged.New("dom-exists", q1, nil, []ged.Literal{ged.VarLit("x", a, "x", a)}),
		ged.New("dom-forbid", q2, xs, ged.False("x")),
	}
}

// DomainGEDor returns the GED∨ of Example 10, Q[x](∅ → x.A = c₁ ∨ … ∨
// x.A = c_k): every tau-labeled node has attribute a with a value among
// the given constants.
func DomainGEDor(tau graph.Label, a graph.Attr, domain ...graph.Value) *ged.GED {
	q := pattern.New()
	q.AddVar("x", tau)
	var ys []ged.Literal
	for _, v := range domain {
		ys = append(ys, ged.ConstLit("x", a, v))
	}
	return ged.NewOr("domain", q, nil, ys)
}

// SplitOr returns the GED∨s equivalent to the conjunctive rule g, one
// per consequent literal, named g#0, g#1, … when there are several
// (Section 7.2: GED∨s subsume GEDs). An empty consequent becomes the
// always-true disjunct x.id = x.id on the pattern's first variable.
func SplitOr(g *ged.GED) ged.Set {
	if len(g.Y) == 0 {
		x := g.Pattern.Vars()[0]
		return ged.Set{ged.NewOr(g.Name, g.Pattern, g.X, []ged.Literal{ged.IDLit(x, x)})}
	}
	out := make(ged.Set, 0, len(g.Y))
	for i, l := range g.Y {
		name := g.Name
		if len(g.Y) > 1 {
			name = fmt.Sprintf("%s#%d", g.Name, i)
		}
		out = append(out, ged.NewOr(name, g.Pattern, g.X, []ged.Literal{l}))
	}
	return out
}
