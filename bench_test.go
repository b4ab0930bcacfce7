package gedlib_test

// Benchmarks regenerating the paper's evaluation artifacts: one
// benchmark family per cell of Table 1 (satisfiability / implication /
// validation × dependency class), the O(1) and bounded-pattern special
// cases, and micro-benchmarks for the substrates (the chase; the
// matcher's live in internal/pattern).
// Everything runs through the public facade.
//
// The paper reports complexity classes rather than absolute numbers;
// the series here make the *shapes* visible: hardness-family instances
// grow super-polynomially with the 3-colorability input, GFDx
// satisfiability stays flat, and fixed-pattern validation scales
// polynomially with graph size.

import (
	"context"
	"fmt"
	"testing"

	"gedlib"
	"gedlib/gdc"
	"gedlib/gedor"
	"gedlib/workload"
)

var (
	benchCtx = context.Background()
	benchEng = gedlib.New()
)

// hardness instances ordered by difficulty.
func hardnessSeries() []struct {
	name string
	h    *workload.UGraph
} {
	return []struct {
		name string
		h    *workload.UGraph
	}{
		{"K3", workload.Complete(3)},
		{"C5", workload.Cycle(5)},
		{"W5", workload.Wheel(5)},
		{"K23", workload.CompleteBipartite(2, 3)},
	}
}

// ---- Table 1: satisfiability ----

func BenchmarkSatGFD3Col(b *testing.B) {
	for _, in := range hardnessSeries() {
		sigma := workload.SatGFDFamily(in.h)
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchEng.CheckSat(benchCtx, sigma)
			}
		})
	}
}

func BenchmarkSatGEDWithKeys(b *testing.B) {
	// GED satisfiability: constants and id literals together.
	sigma := workload.SatGFDFamily(workload.Cycle(5))
	sigma = append(sigma, workload.PaperKeys()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchEng.CheckSat(benchCtx, sigma)
	}
}

func BenchmarkSatGKeyRecursive(b *testing.B) {
	sigma := workload.PaperKeys()
	for i := 0; i < b.N; i++ {
		benchEng.CheckSat(benchCtx, sigma)
	}
}

func BenchmarkSatGEDxRandom(b *testing.B) {
	sigma := workload.RandomGEDSet(3, 6, 4, []gedlib.Label{"a", "b"}, []gedlib.Attr{"p", "q"}, 3)
	var gedx gedlib.RuleSet
	for _, d := range sigma {
		var ys []gedlib.Literal
		for _, l := range d.Y {
			if k, _ := l.Kind(); k != gedlib.ConstLiteral {
				ys = append(ys, l)
			}
		}
		gedx = append(gedx, gedlib.NewRule(d.Name, d.Pattern, nil, ys))
	}
	for i := 0; i < b.N; i++ {
		benchEng.CheckSat(benchCtx, gedx)
	}
}

// BenchmarkSatGFDxConstant shows the O(1) row: a GFDx set is always
// satisfiable (Theorem 3), so CheckSat builds its model without a
// chase and time grows only with |Σ|, never with a search.
func BenchmarkSatGFDxConstant(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		sigma, _ := workload.ImplGFDxFamily(workload.Cycle(n))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r, err := benchEng.CheckSat(benchCtx, sigma); err != nil || !r.Satisfiable {
					b.Fatal("GFDx must be satisfiable")
				}
			}
		})
	}
}

func BenchmarkSatGDCDomain(b *testing.B) {
	dom := gdc.DomainConstraint("tau", "A", gedlib.Int(0), gedlib.Int(1))
	for i := 0; i < b.N; i++ {
		if gdc.CheckSat(dom).Satisfiable != gdc.True {
			b.Fatal("domain must be satisfiable")
		}
	}
}

func BenchmarkSatGEDorDomain(b *testing.B) {
	psi := gedor.DomainConstraint("tau", "A", gedlib.Int(0), gedlib.Int(1))
	psi2 := gedor.DomainConstraint("tau", "B", gedlib.Int(3), gedlib.Int(4), gedlib.Int(5))
	sigma := gedlib.RuleSet{psi, psi2}
	for i := 0; i < b.N; i++ {
		if gedor.CheckSat(sigma).Satisfiable != gedor.True {
			b.Fatal("domains must be satisfiable")
		}
	}
}

// ---- Table 1: implication ----

func BenchmarkImplGFDx3Col(b *testing.B) {
	for _, in := range hardnessSeries() {
		sigma, phi := workload.ImplGFDxFamily(in.h)
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchEng.Implies(benchCtx, sigma, phi)
			}
		})
	}
}

func BenchmarkImplGKey3Col(b *testing.B) {
	for _, in := range hardnessSeries() {
		sigma, phi := workload.ImplGKeyFamily(in.h)
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchEng.Implies(benchCtx, sigma, phi)
			}
		})
	}
}

func BenchmarkImplGEDKeyWeakening(b *testing.B) {
	q := gedlib.NewPattern()
	q.AddVar("x", "album")
	k1, _ := gedlib.NewKey("k1", q, "x", func(x, fx gedlib.Var) []gedlib.Literal {
		return []gedlib.Literal{gedlib.VarLit(x, "title", fx, "title")}
	})
	k2, _ := gedlib.NewKey("k2", q, "x", func(x, fx gedlib.Var) []gedlib.Literal {
		return []gedlib.Literal{gedlib.VarLit(x, "title", fx, "title"), gedlib.VarLit(x, "release", fx, "release")}
	})
	sigma := gedlib.RuleSet{k1}
	for i := 0; i < b.N; i++ {
		r, err := benchEng.Implies(benchCtx, sigma, k2)
		if err != nil || !r.Implied {
			b.Fatal("weakening must be implied")
		}
	}
}

func BenchmarkImplGDCOrder(b *testing.B) {
	q := gedlib.NewPattern()
	q.AddVar("x", "p")
	lt5 := gedlib.RuleSet{gdc.New("lt5", q, nil, []gedlib.Literal{gedlib.Cmp("x", "a", gedlib.OpLt, gedlib.Int(5))})}
	q2 := gedlib.NewPattern()
	q2.AddVar("x", "p")
	lt10 := gdc.New("lt10", q2, nil, []gedlib.Literal{gedlib.Cmp("x", "a", gedlib.OpLt, gedlib.Int(10))})
	for i := 0; i < b.N; i++ {
		gdc.Implies(lt5, lt10)
	}
}

func BenchmarkImplGEDorCaseSplit(b *testing.B) {
	q := func() *gedlib.Pattern {
		p := gedlib.NewPattern()
		p.AddVar("x", "tau")
		return p
	}
	dom := gedor.DomainConstraint("tau", "A", gedlib.Int(0), gedlib.Int(1))
	c0 := gedor.New("c0", q(), []gedlib.Literal{gedlib.ConstLit("x", "A", gedlib.Int(0))},
		[]gedlib.Literal{gedlib.ConstLit("x", "B", gedlib.Int(5))})
	c1 := gedor.New("c1", q(), []gedlib.Literal{gedlib.ConstLit("x", "A", gedlib.Int(1))},
		[]gedlib.Literal{gedlib.ConstLit("x", "B", gedlib.Int(5))})
	phi := gedor.New("phi", q(), nil, []gedlib.Literal{gedlib.ConstLit("x", "B", gedlib.Int(5))})
	sigma := gedlib.RuleSet{dom, c0, c1}
	for i := 0; i < b.N; i++ {
		if gedor.Implies(sigma, phi).Implied != gedor.True {
			b.Fatal("case split must be implied")
		}
	}
}

// ---- Table 1: validation ----

func BenchmarkValidGFDx3Col(b *testing.B) {
	for _, in := range hardnessSeries() {
		g, sigma := workload.ValidGFDxFamily(in.h)
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gedlib.Satisfies(g, sigma)
			}
		})
	}
}

func BenchmarkValidGKey3Col(b *testing.B) {
	for _, in := range hardnessSeries() {
		g, sigma := workload.ValidGKeyFamily(in.h)
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gedlib.Satisfies(g, sigma)
			}
		})
	}
}

func BenchmarkValidGFDKnowledgeBase(b *testing.B) {
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi3(), workload.PaperPhi4()}
	for _, n := range []int{50, 100, 200} {
		g, _ := workload.KnowledgeBase(5, n, 0.1)
		b.Run(fmt.Sprintf("scale%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEng.Validate(benchCtx, g, sigma)
			}
		})
	}
}

func BenchmarkValidGEDMusicKeys(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		g, _ := workload.MusicDB(5, n, 0.2)
		b.Run(fmt.Sprintf("artists%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchEng.Validate(benchCtx, g, workload.PaperKeys())
			}
		})
	}
}

func BenchmarkValidSpamRule(b *testing.B) {
	g, _ := workload.SocialNetwork(5, 10, 8)
	sigma := gedlib.RuleSet{workload.PaperPhi5(2)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchEng.Validate(benchCtx, g, sigma)
	}
}

func BenchmarkValidGDCDenial(b *testing.B) {
	q := gedlib.NewPattern()
	q.AddVar("e", "emp").AddVar("m", "emp")
	q.AddEdge("e", "reports_to", "m")
	dc := gdc.New("salary", q,
		[]gedlib.Literal{gedlib.CmpVars("e", "salary", gedlib.OpGt, "m", "salary")}, gedlib.False("e"))
	g := gedlib.NewGraph()
	var prev gedlib.NodeID = -1
	for i := 0; i < 200; i++ {
		n := g.AddNodeAttrs("emp", map[gedlib.Attr]gedlib.Value{"salary": gedlib.Int(100 - i%7)})
		if prev >= 0 {
			g.AddEdge(n, "reports_to", prev)
		}
		prev = n
	}
	for i := 0; i < b.N; i++ {
		benchEng.Validate(benchCtx, g, gedlib.RuleSet{dc})
	}
}

func BenchmarkValidGEDorDomain(b *testing.B) {
	psi := gedor.DomainConstraint("account", "flag", gedlib.Int(0), gedlib.Int(1))
	g := gedlib.NewGraph()
	for i := 0; i < 500; i++ {
		g.AddNodeAttrs("account", map[gedlib.Attr]gedlib.Value{"flag": gedlib.Int(i % 3)})
	}
	for i := 0; i < b.N; i++ {
		benchEng.Validate(benchCtx, g, gedlib.RuleSet{psi})
	}
}

// ---- Section 5.3: bounded patterns are tractable ----

func BenchmarkBoundedPatternValidation(b *testing.B) {
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi3(), workload.PaperPhi4()}
	for _, n := range []int{100, 200, 400, 800} {
		g, _ := workload.KnowledgeBase(9, n, 0.05)
		b.Run(fmt.Sprintf("graph%d", g.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchEng.Validate(benchCtx, g, sigma)
			}
		})
	}
}

// ---- Substrates ----

func BenchmarkChaseEntityResolution(b *testing.B) {
	for _, n := range []int{20, 40} {
		g, _ := workload.MusicDB(5, n, 0.4)
		b.Run(fmt.Sprintf("artists%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEng.Chase(benchCtx, g.Clone(), workload.PaperKeys())
			}
		})
	}
}

func BenchmarkAxiomProve(b *testing.B) {
	q := gedlib.NewPattern()
	q.AddVar("x", "p")
	ab := gedlib.NewRule("ab", q, []gedlib.Literal{gedlib.ConstLit("x", "a", gedlib.Int(1))},
		[]gedlib.Literal{gedlib.ConstLit("x", "b", gedlib.Int(2))})
	bc := gedlib.NewRule("bc", q, []gedlib.Literal{gedlib.ConstLit("x", "b", gedlib.Int(2))},
		[]gedlib.Literal{gedlib.ConstLit("x", "c", gedlib.Int(3))})
	ac := gedlib.NewRule("ac", q, []gedlib.Literal{gedlib.ConstLit("x", "a", gedlib.Int(1))},
		[]gedlib.Literal{gedlib.ConstLit("x", "c", gedlib.Int(3))})
	sigma := gedlib.RuleSet{ab, bc}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := benchEng.Prove(benchCtx, sigma, ac)
		if err != nil {
			b.Fatal(err)
		}
		if err := benchEng.CheckProof(benchCtx, sigma, p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Applications: parallel validation, query rewriting, repair ----

func BenchmarkValidateParallel(b *testing.B) {
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi3(), workload.PaperPhi4()}
	g, _ := workload.KnowledgeBase(5, 400, 0.1)
	for _, workers := range []int{1, 2, 4, 8} {
		eng := gedlib.New(gedlib.WithWorkers(workers))
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Validate(benchCtx, g, sigma)
			}
		})
	}
}

func BenchmarkQueryRewriteSpeedup(b *testing.B) {
	keys := workload.PaperKeys()
	raw, _ := workload.MusicDB(21, 200, 0.3)
	res, err := benchEng.Chase(benchCtx, raw, keys)
	if err != nil || !res.Consistent() {
		b.Fatal("resolution failed")
	}
	data := res.Materialize()
	q := gedlib.NewPattern()
	q.AddVar("u", "album").AddVar("v", "album")
	query := &gedlib.Query{Pattern: q, X: []gedlib.Literal{
		gedlib.VarLit("u", "title", "v", "title"),
		gedlib.VarLit("u", "release", "v", "release"),
	}}
	rewritten, err := benchEng.OptimizeQuery(benchCtx, query, keys)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gedlib.Answers(query, data)
		}
	})
	b.Run("rewritten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gedlib.Answers(rewritten.Query, data)
		}
	})
}

func BenchmarkRepairMusicCatalog(b *testing.B) {
	g, _ := workload.MusicDB(3, 30, 0.4)
	keys := workload.PaperKeys()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := benchEng.Repair(benchCtx, g, keys)
		if err != nil || !r.Repaired {
			b.Fatal("repair failed")
		}
	}
}

// BenchmarkValidatorIndexed compares plain validation against the
// prepared, attribute-indexed validator on the spam workload: the
// antecedent x'.is_fake = 1 of φ₅ is highly selective, so the index
// pivot starts the six-variable match from the handful of confirmed
// fakes instead of every account.
func BenchmarkValidatorIndexed(b *testing.B) {
	sigma := gedlib.RuleSet{workload.PaperPhi5(2)}
	g, _ := workload.SocialNetwork(5, 30, 10)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchEng.Validate(benchCtx, g, sigma)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		v := gedlib.NewSnapshotValidator(g.Freeze(), sigma)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.RunCtx(benchCtx, 0)
		}
	})
}
