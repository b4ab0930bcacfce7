package axiom

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gedlib/internal/gdc"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// chaseImplies is the chase-based decision of Theorem 4, the reference
// every proof verdict is checked against.
func chaseImplies(sigma ged.Set, phi *ged.GED) bool {
	r, err := gdc.Implies(context.Background(), sigma, phi, 0)
	return err == nil && r.Implied
}

func singleNodeQ(label graph.Label) *pattern.Pattern {
	q := pattern.New()
	q.AddVar("x", label)
	return q
}

func TestProveReflexive(t *testing.T) {
	// Σ ⊢ φ for φ ∈ Σ.
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "a")
	phi := ged.New("phi", q,
		[]ged.Literal{ged.VarLit("x", "k", "y", "k")},
		[]ged.Literal{ged.IDLit("x", "y")})
	sigma := ged.Set{phi}
	p, err := Prove(sigma, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

func TestProveTransitivityChain(t *testing.T) {
	// Example 8(c): X → Y, Y → Z ⊢ X → Z (constants standing in for the
	// abstract literal sets).
	q := singleNodeQ("p")
	ab := ged.New("ab", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))})
	bc := ged.New("bc", q,
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))},
		[]ged.Literal{ged.ConstLit("x", "c", graph.Int(3))})
	ac := ged.New("ac", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "c", graph.Int(3))})
	sigma := ged.Set{ab, bc}
	p, err := Prove(sigma, ac)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	// The proof must use GED6 (pattern composition drives the chase
	// replay) and GED3 (literal extraction).
	used := map[Rule]bool{}
	for _, s := range p.Steps {
		used[s.Rule] = true
	}
	for _, r := range []Rule{RuleGED1, RuleGED3, RuleGED6} {
		if !used[r] {
			t.Errorf("expected rule %s in the proof\n%s", r, p)
		}
	}
}

func TestProveAugmentation(t *testing.T) {
	// Example 8(b): from Q(X → Y) derive Q(XZ → YZ).
	q := singleNodeQ("p")
	xy := ged.New("xy", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))})
	xzyz := ged.New("xzyz", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1)), ged.ConstLit("x", "z", graph.Int(9))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2)), ged.ConstLit("x", "z", graph.Int(9))})
	sigma := ged.Set{xy}
	p, err := Prove(sigma, xzyz)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

func TestProveGED5Inconsistent(t *testing.T) {
	// The paper's GED5 independence witness: Σ = ∅ and
	// φ = Q[x]((x.A = 1) ∧ (x.A = 2) → x.A = 3).
	q := singleNodeQ("p")
	phi := ged.New("phi", q,
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(1)), ged.ConstLit("x", "A", graph.Int(2))},
		[]ged.Literal{ged.ConstLit("x", "A", graph.Int(3))})
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	usedGED5 := false
	for _, s := range p.Steps {
		if s.Rule == RuleGED5 {
			usedGED5 = true
		}
	}
	if !usedGED5 {
		t.Errorf("a proof of a constant-inventing GED must use GED5\n%s", p)
	}
}

func TestProveChaseConflict(t *testing.T) {
	// Σ forces a label conflict on φ's pattern: implication holds by
	// condition (1) of Theorem 4 and the proof routes through GED5.
	qf := pattern.New()
	qf.AddVar("x", "a").AddVar("y", "b")
	sigma := ged.Set{ged.New("merge", qf, nil, []ged.Literal{ged.IDLit("x", "y")})}
	phi := ged.New("phi", qf, nil, []ged.Literal{ged.ConstLit("x", "whatever", graph.Int(5))})
	if !chaseImplies(sigma, phi) {
		t.Fatal("precondition: Σ must imply φ by inconsistency")
	}
	p, err := Prove(sigma, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

func TestProveUsesGED2(t *testing.T) {
	// Identifying nodes propagates attributes: deriving y.k = z.k after
	// y.id = z.id requires GED2.
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b").AddVar("z", "b")
	q.AddEdge("x", "e", "y")
	q.AddEdge("x", "e", "z")
	sigma := ged.Set{ged.New("key", q, nil, []ged.Literal{ged.IDLit("y", "z")})}
	phi := ged.New("phi", q,
		[]ged.Literal{ged.ConstLit("y", "k", graph.Int(7))},
		[]ged.Literal{ged.VarLit("y", "k", "z", "k")})
	if !chaseImplies(sigma, phi) {
		t.Fatal("precondition: Σ must imply φ")
	}
	p, err := Prove(sigma, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	used := false
	for _, s := range p.Steps {
		if s.Rule == RuleGED2 {
			used = true
		}
	}
	if !used {
		t.Errorf("expected GED2 in the proof\n%s", p)
	}
}

func TestProveExample7(t *testing.T) {
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
	sigma := ged.Set{phi1, phi2}
	p, err := Prove(sigma, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
}

func TestProveNotImplied(t *testing.T) {
	q := singleNodeQ("p")
	phi := ged.New("phi", q, nil, []ged.Literal{ged.ConstLit("x", "a", graph.Int(1))})
	if _, err := Prove(nil, phi); err == nil {
		t.Error("Prove must fail on a non-implied GED")
	}
}

func TestProveEmptyConsequent(t *testing.T) {
	q := singleNodeQ("p")
	phi := ged.New("phi", q, []ged.Literal{ged.ConstLit("x", "a", graph.Int(1))}, nil)
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(nil, p); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCheckRejectsTampering(t *testing.T) {
	q := singleNodeQ("p")
	ab := ged.New("ab", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2))})
	ac := ged.New("ac", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "b", graph.Int(2)), ged.ConstLit("x", "a", graph.Int(1)),
			ged.IDLit("x", "x")})
	sigma := ged.Set{ab}
	p, err := Prove(sigma, ac)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}

	// Tamper 1: claim a different Σ member.
	bad := *p
	bad.Steps = append([]Step{}, p.Steps...)
	for i, s := range bad.Steps {
		if s.Rule == RulePremise {
			s.SigmaIndex = 5
			bad.Steps[i] = s
		}
	}
	if Check(sigma, &bad) == nil {
		t.Error("tampered sigma index accepted")
	}

	// Tamper 2: smuggle an extra literal into a conclusion.
	bad2 := *p
	bad2.Steps = append([]Step{}, p.Steps...)
	last := *bad2.Steps[len(bad2.Steps)-1].Concl
	last.Y = append(append([]ged.Literal{}, last.Y...), ged.ConstLit("x", "zz", graph.Int(42)))
	bad2.Steps[len(bad2.Steps)-1].Concl = &last
	if Check(sigma, &bad2) == nil {
		t.Error("smuggled literal accepted")
	}

	// Tamper 3: forge a GED5 application on a consistent premise.
	forged := &Proof{
		Target: ac,
		Steps: []Step{
			{Rule: RuleGED1, Concl: ged.New("", q, ac.X, append(append([]ged.Literal{}, ac.X...), ged.IDLit("x", "x")))},
			{Rule: RuleGED5, Concl: ac, Prem: []int{0}},
		},
	}
	if Check(sigma, forged) == nil {
		t.Error("GED5 on a consistent premise accepted")
	}

	// Tamper 3b: the same forgery over a comparison is a GDC step, not
	// an A_GED one; it is rejected before GED5 chases its premise.
	lt := []ged.Literal{ged.Cmp("x", "a", ged.OpLt, graph.Int(1))}
	forgedGDC := &Proof{
		Target: ac,
		Steps: []Step{
			{Rule: RuleGED1, Concl: ged.New("", q, lt, append(append([]ged.Literal{}, lt...), ged.IDLit("x", "x")))},
			{Rule: RuleGED5, Concl: ged.New("", q, lt, nil), Prem: []int{0}},
		},
	}
	if err := Check(sigma, forgedGDC); !errors.Is(err, ged.ErrNotGED) {
		t.Errorf("GDC step: %v, want ErrNotGED", err)
	}

	// Tamper 4: GED6 with a match violating labels.
	qq := pattern.New()
	qq.AddVar("x", "a").AddVar("y", "b")
	side := ged.New("side", singleNodeQ("zzz"), nil, nil)
	forged2 := &Proof{
		Target: ged.New("", qq, nil, nil),
		Steps: []Step{
			{Rule: RuleGED1, Concl: ged.New("", qq, nil, xid(qq))},
			{Rule: RulePremise, Concl: side, SigmaIndex: 0},
			{Rule: RuleGED6, Concl: ged.New("", qq, nil, xid(qq)),
				Prem: []int{0, 1}, Match: map[pattern.Var]pattern.Var{"x": "x"}},
		},
	}
	if Check(ged.Set{side}, forged2) == nil {
		t.Error("GED6 with label-incompatible match accepted")
	}
}

func TestCheckRejectsForwardReference(t *testing.T) {
	q := singleNodeQ("p")
	g := ged.New("", q, nil, xid(q))
	p := &Proof{Target: g, Steps: []Step{
		{Rule: RuleGED3, Concl: ged.New("", q, nil, []ged.Literal{ged.IDLit("x", "x")}), Prem: []int{1}},
		{Rule: RuleGED1, Concl: g},
	}}
	if Check(nil, p) == nil {
		t.Error("forward premise reference accepted")
	}
}

func TestProofString(t *testing.T) {
	q := singleNodeQ("p")
	phi := ged.New("phi", q,
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))},
		[]ged.Literal{ged.ConstLit("x", "a", graph.Int(1))})
	p, err := Prove(nil, phi)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "GED1") {
		t.Errorf("rendered proof missing GED1:\n%s", s)
	}
}

// TestSoundnessAndCompletenessRandom cross-checks Prove/Check against
// the chase-based decision procedure on random instances: Σ ⊨ φ iff a
// checkable proof exists (Theorem 7).
func TestSoundnessAndCompletenessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	proved, refused := 0, 0
	for trial := 0; trial < 200; trial++ {
		sigma := randomSigma(rng)
		phi := randomSigma(rng)[0]
		implied := chaseImplies(sigma, phi)
		p, err := Prove(sigma, phi)
		if implied && err != nil {
			t.Fatalf("trial %d: implied but Prove failed: %v\nΣ=%v\nφ=%v", trial, err, sigma, phi)
		}
		if !implied && err == nil {
			t.Fatalf("trial %d: not implied but Prove succeeded\nΣ=%v\nφ=%v\n%s", trial, sigma, phi, p)
		}
		if err != nil {
			refused++
			continue
		}
		proved++
		if cerr := Check(sigma, p); cerr != nil {
			t.Fatalf("trial %d: generated proof rejected: %v\nΣ=%v\nφ=%v\n%s", trial, cerr, sigma, phi, p)
		}
	}
	if proved == 0 || refused == 0 {
		t.Logf("coverage: proved=%d refused=%d", proved, refused)
	}
}

// randomSigma mirrors the reason package's random instances, with GKeys
// occasionally thrown in.
func randomSigma(rng *rand.Rand) ged.Set {
	labels := []graph.Label{"a", "b", graph.Wildcard}
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
		switch rng.Intn(4) {
		case 0:
			xs = append(xs, ged.VarLit("x", attrs[0], "y", attrs[0]))
		case 1:
			xs = append(xs, ged.ConstLit("x", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		case 2:
			xs = append(xs, ged.IDLit("x", "y"))
		}
		switch rng.Intn(4) {
		case 0:
			ys = append(ys, ged.IDLit("x", "y"))
		case 1:
			ys = append(ys, ged.ConstLit("y", attrs[rng.Intn(2)], graph.Int(rng.Intn(2))))
		case 2:
			ys = append(ys, ged.VarLit("x", attrs[1], "y", attrs[1]))
		case 3:
			ys = append(ys, ged.VarLit("x", attrs[0], "x", attrs[1]),
				ged.ConstLit("y", attrs[0], graph.Int(rng.Intn(2))))
		}
		sigma = append(sigma, ged.New(fmt.Sprintf("r%d", i), q, xs, ys))
	}
	return sigma
}

func TestProveRecursiveKeyCascade(t *testing.T) {
	// The ψ₂ → ψ₃ → ψ₁ cascade as one implication: if two album pairs
	// share titles/releases and artist names appropriately, the albums
	// of the merged artists are identified too. The proof must chain id
	// literals through GED2-propagated attributes.
	psi1 := func() *ged.GED {
		q := pattern.New()
		q.AddVar("x", "album").AddVar("z", "artist")
		q.AddEdge("x", "by", "z")
		k, err := ged.NewGKey("psi1", q, "x", func(v, fv pattern.Var) []ged.Literal {
			if v == "x" {
				return []ged.Literal{ged.VarLit(v, "title", fv, "title")}
			}
			return []ged.Literal{ged.IDLit(v, fv)}
		})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()
	psi2 := func() *ged.GED {
		q := pattern.New()
		q.AddVar("x", "album")
		k, err := ged.NewGKey("psi2", q, "x", func(v, fv pattern.Var) []ged.Literal {
			return []ged.Literal{ged.VarLit(v, "title", fv, "title"), ged.VarLit(v, "release", fv, "release")}
		})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()
	psi3 := func() *ged.GED {
		q := pattern.New()
		q.AddVar("x", "album").AddVar("z", "artist")
		q.AddEdge("x", "by", "z")
		k, err := ged.NewGKey("psi3", q, "z", func(v, fv pattern.Var) []ged.Literal {
			if v == "z" {
				return []ged.Literal{ged.VarLit(v, "name", fv, "name")}
			}
			return []ged.Literal{ged.IDLit(v, fv)}
		})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()
	sigma := ged.Set{psi1, psi2, psi3}

	// φ: two artists each with two albums; the first albums share
	// title+release, artists share names, second albums share titles.
	// Conclusion: the second albums are the same entity.
	q := pattern.New()
	q.AddVar("a1", "album").AddVar("b1", "album").AddVar("r1", "artist")
	q.AddVar("a2", "album").AddVar("b2", "album").AddVar("r2", "artist")
	q.AddEdge("a1", "by", "r1")
	q.AddEdge("b1", "by", "r1")
	q.AddEdge("a2", "by", "r2")
	q.AddEdge("b2", "by", "r2")
	phi := ged.New("cascade", q,
		[]ged.Literal{
			ged.VarLit("a1", "title", "a2", "title"),
			ged.VarLit("a1", "release", "a2", "release"),
			ged.VarLit("r1", "name", "r2", "name"),
			ged.VarLit("b1", "title", "b2", "title"),
		},
		[]ged.Literal{ged.IDLit("b1", "b2"), ged.IDLit("r1", "r2")})

	if !chaseImplies(sigma, phi) {
		t.Fatal("precondition: the cascade must be implied")
	}
	p, err := Prove(sigma, phi)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Check(sigma, p); err != nil {
		t.Fatalf("Check: %v\n%s", err, p)
	}
	if p.Len() < 6 {
		t.Errorf("cascade proof suspiciously short (%d steps)", p.Len())
	}
}
