package reason

// Differential and contract tests for violation-directed full scans: a
// scan that abandons partial bindings (X refuted, Y settled) must report
// what the scan that completes and judges every match reports.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// prunedSigma draws 1–3 rules over up to four variables that between
// them cover what the pruner has to get right: every literal form in X
// and in Y, literals over one variable, wildcard labels, disconnected
// patterns, the attribute r no node carries, a pushed-down constant X
// literal next to a variable one, Y = ∅, Y = x.id = x.id (alone and in
// front of real literals), the forbidding Y of ged.False, and a rule
// with more prunable X literals than the matcher's 64-bit close table
// holds — whose last literals only the leaf judges.
func prunedSigma(rng *rand.Rand) ged.Set {
	labels := []graph.Label{"a", "b", graph.Wildcard}
	names := []pattern.Var{"w", "x", "y", "z"}
	var sigma ged.Set
	for i := 0; i < 1+rng.Intn(3); i++ {
		q := pattern.New()
		vars := names[:1+rng.Intn(len(names))]
		for _, x := range vars {
			q.AddVar(x, labels[rng.Intn(len(labels))])
		}
		for k := rng.Intn(len(vars) + 2); k > 0; k-- { // none at all: disconnected
			q.AddEdge(vars[rng.Intn(len(vars))], "e", vars[rng.Intn(len(vars))])
		}
		pick := func() pattern.Var { return vars[rng.Intn(len(vars))] }
		var xs, ys []ged.Literal
		switch rng.Intn(6) {
		case 0:
			x := pick()
			xs = append(xs, ged.ConstLit(x, "p", denseValues[rng.Intn(len(denseValues))]), ged.VarLit(x, "q", pick(), "q"))
		case 1:
			for k := 0; k < 66; k++ {
				x := pick()
				xs = append(xs, ged.IDLit(x, x))
			}
			xs = append(xs, denseLiteral(rng, vars), denseLiteral(rng, vars))
		default:
			for k := rng.Intn(3); k > 0; k-- {
				xs = append(xs, denseLiteral(rng, vars))
			}
		}
		switch rng.Intn(8) {
		case 0: // Y = ∅
		case 1:
			ys = ged.False(pick())
		case 2:
			x := pick()
			ys = append(ys, ged.IDLit(x, x))
		case 3:
			x := pick()
			ys = append(ys, ged.IDLit(x, x), denseLiteral(rng, vars))
		default:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				ys = append(ys, denseLiteral(rng, vars))
			}
		}
		sigma = append(sigma, ged.New(fmt.Sprintf("r%d", i), q, xs, ys))
	}
	return sigma
}

// TestPrunedScanEqualsUnpruned: on a fresh validator every full-scan
// entry point reports the unpruned oracle's violations byte for byte —
// sequence, limit prefix, recorded literal — and TouchingCtx, which
// does not prune, what it always reported. After a delta that may
// introduce the open attribute r, the rebased validator (whose plans
// keep their compile-time order, so sequences are compared in canonical
// order; every worker count still reports RunCtx's own sequence) and the
// maintained store still agree with a fresh oracle.
func TestPrunedScanEqualsUnpruned(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, sigma := denseGraph(rng), prunedSigma(rng)
		val := NewValidatorOn(g.Freeze(), sigma)
		if !entryPointsMatchOracle(t, seed, rng, g, val) {
			return false
		}
		st, err := NewViolationStoreParallelCtx(ctx, val, 1+rng.Intn(3))
		if err != nil || !sameViolations(t, fmt.Sprintf("seed %d: store seed", seed), st.Violations(), oracleCanonical(val, 0, nil), sigma) {
			return false
		}

		from := val.Snapshot().SourceVersion()
		denseMutate(g, rng, 2+rng.Intn(6))
		d := g.DeltaSince(from)
		post := val.Snapshot().Apply(d)
		val = val.Rebase(post)
		fresh := NewValidatorOn(post, sigma)
		want := oracleCanonical(fresh, 0, nil)
		at := fmt.Sprintf("seed %d rebased: ", seed)
		seq, err := val.RunCtx(ctx, 0)
		if err != nil {
			return false
		}
		for workers := 2; workers <= 3; workers++ {
			got, err := val.RunParallelCtx(ctx, 0, workers)
			if err != nil || !sameViolations(t, fmt.Sprintf("%sRunParallelCtx(%d)", at, workers), got, seq, sigma) {
				return false
			}
		}
		got := append([]Violation(nil), seq...)
		sortViolations(got, sigma)
		if !sameViolations(t, at+"RunCtx", got, want, sigma) {
			return false
		}
		got, err = val.TouchingCtx(ctx, d.TouchedNodes(), 0)
		if err != nil || !sameViolations(t, at+"TouchingCtx", got, oracleCanonical(fresh, 0, touches(d.TouchedNodes())), sigma) {
			return false
		}
		if err := st.Apply(ctx, post, d.TouchedNodes()); err != nil || !sameViolations(t, at+"store", st.Violations(), want, sigma) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(2201, 400)); err != nil {
		t.Error(err)
	}
}

// TestUnviolableRulesAreSkipped: a rule whose consequent is empty or
// only says x.id = x.id cannot be violated, so no full scan enumerates
// it — the matcher examines no candidate at all — while x.A = x.A,
// which fails where x lacks A, is enumerated like any other.
func TestUnviolableRulesAreSkipped(t *testing.T) {
	ctx := context.Background()
	g := graph.New()
	for i := 0; i < 8; i++ {
		n := g.AddNode("a")
		if i%2 == 0 {
			g.SetAttr(n, "p", graph.Int(1))
		}
		g.AddEdge(n, "e", graph.NodeID(i/2))
	}
	q := pattern.New()
	q.AddVar("x", "a")
	q.AddVar("y", "a")
	q.AddEdge("x", "e", "y")
	sigma := ged.Set{
		ged.New("empty", q, nil, nil),
		ged.New("selfid", q, []ged.Literal{ged.ConstLit("x", "p", graph.Int(1))}, []ged.Literal{ged.IDLit("y", "y")}),
		ged.New("selfattr", q, nil, []ged.Literal{ged.VarLit("x", "p", "x", "p")}),
	}
	reg := obs.NewRegistry()
	val := NewValidatorOn(g.Freeze(), sigma)
	val.Observe(reg)
	cands := func(rule string) uint64 {
		return reg.Counter("ged_match_candidates_total", "", "rule", rule).Value()
	}

	want := oracleCanonical(val, 0, nil)
	if len(want) != 4 {
		t.Fatalf("oracle finds %d violations of selfattr, want the 4 edges leaving a node without p", len(want))
	}
	if _, err := val.RunCtx(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 3; workers++ {
		got, err := val.RunParallelCtx(ctx, 0, workers)
		if err != nil || !sameViolations(t, fmt.Sprintf("RunParallelCtx(%d)", workers), got, want, sigma) {
			t.Fail()
		}
	}
	if st, err := NewViolationStoreParallelCtx(ctx, val, 2); err != nil || !sameViolations(t, "store seed", st.Violations(), want, sigma) {
		t.Fail()
	}
	if n := cands("empty") + cands("selfid"); n != 0 {
		t.Errorf("unviolable rules cost %d candidates, want 0", n)
	}
	if cands("selfattr") == 0 {
		t.Error("selfattr was not enumerated")
	}
}
