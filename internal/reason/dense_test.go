package reason

// Differential tests for the compiled, dense validation path: every
// entry point must report what the name-resolving oracle reports —
// ged.Holds over the Match-map enumeration, which is how every one of
// them ran before literals were compiled — with the same violations,
// the same order and the same recorded failing literal.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// denseValues mixes kinds on purpose: Int(1) and String("1") must not
// compare equal.
var denseValues = []graph.Value{graph.Int(0), graph.Int(1), graph.String("0"), graph.String("1")}

// denseGraph is a small random host: labels a/b, attributes p/q on some
// nodes (never r — rules naming r exercise the absent-attribute path),
// e-edges including self-loops.
func denseGraph(rng *rand.Rand) *graph.Graph {
	labels := []graph.Label{"a", "b"}
	g := graph.New()
	n := 3 + rng.Intn(5)
	for i := 0; i < n; i++ {
		id := g.AddNode(labels[rng.Intn(len(labels))])
		for _, a := range []graph.Attr{"p", "q"} {
			if rng.Intn(3) > 0 {
				g.SetAttr(id, a, denseValues[rng.Intn(len(denseValues))])
			}
		}
	}
	for i := 0; i < 3*n; i++ {
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		if rng.Intn(6) == 0 {
			dst = src
		}
		g.AddEdge(src, "e", dst)
	}
	return g
}

// denseLiteral draws one literal over vars: const, var or id form,
// sometimes over the attribute r that no node carries.
func denseLiteral(rng *rand.Rand, vars []pattern.Var) ged.Literal {
	attrs := []graph.Attr{"p", "q", "r"}
	x := vars[rng.Intn(len(vars))]
	y := vars[rng.Intn(len(vars))]
	switch rng.Intn(3) {
	case 0:
		return ged.ConstLit(x, attrs[rng.Intn(len(attrs))], denseValues[rng.Intn(len(denseValues))])
	case 1:
		return ged.VarLit(x, attrs[rng.Intn(len(attrs))], y, attrs[rng.Intn(len(attrs))])
	}
	return ged.IDLit(x, y)
}

// denseSigma draws 1–3 rules of 1–3 variables with wildcard labels,
// pattern self-loops, empty antecedents and multi-literal consequents.
func denseSigma(rng *rand.Rand) ged.Set {
	labels := []graph.Label{"a", "b", graph.Wildcard}
	names := []pattern.Var{"x", "y", "z"}
	var sigma ged.Set
	for i := 0; i < 1+rng.Intn(3); i++ {
		q := pattern.New()
		vars := names[:1+rng.Intn(len(names))]
		for _, x := range vars {
			q.AddVar(x, labels[rng.Intn(len(labels))])
		}
		for k := 0; k < len(vars); k++ {
			src := vars[rng.Intn(len(vars))]
			dst := vars[rng.Intn(len(vars))]
			if rng.Intn(3) > 0 {
				q.AddEdge(src, "e", dst) // src == dst is a self-loop
			}
		}
		var xs, ys []ged.Literal
		for k := rng.Intn(3); k > 0; k-- { // empty X one time in three
			xs = append(xs, denseLiteral(rng, vars))
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			ys = append(ys, denseLiteral(rng, vars))
		}
		sigma = append(sigma, ged.New(fmt.Sprintf("r%d", i), q, xs, ys))
	}
	return sigma
}

// oracleScan is sequential validation the way it ran on Match maps: a
// plan compiled with the validator's ordering hints but enumerated with
// no pruner, every match lifted to a Match map and judged by ged.Holds
// per literal (failingOn).
func oracleScan(val *Validator, limit int) []Violation {
	var out []Violation
	for _, d := range val.sigma {
		pl := pattern.CompileFiltered(d.Pattern, val.snap, PushdownFilters(d), CloseHints(d))
		pl.ForEachDenseCancel(nil, nil, func(bind []graph.NodeID) bool {
			m := d.Pattern.MatchOf(bind)
			if l := failingOn(val.snap, d, m); l != nil {
				out = append(out, Violation{GED: d, Match: m, Literal: l})
			}
			return limit <= 0 || len(out) < limit
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// oracleCanonical is what the canonical-order entry points (the touched
// search and the store) must return:
// the oracle's violations that keep admits, sorted, then truncated.
func oracleCanonical(val *Validator, limit int, keep func(Violation) bool) []Violation {
	var out []Violation
	for _, v := range oracleScan(val, 0) {
		if keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	sortViolations(out, val.sigma)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func touches(nodes []graph.NodeID) func(Violation) bool {
	return func(v Violation) bool {
		for _, n := range v.Match {
			for _, t := range nodes {
				if n == t {
					return true
				}
			}
		}
		return false
	}
}

// countdownCtx reports cancellation from its k-th Err call on.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func countdown(k int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(k))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) expired() bool { return c.left.Load() < 0 }

func quickCfg(seed int64, n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(seed))}
}

// sameViolations compares two results byte for byte — order and
// recorded literal included — logging both on a mismatch.
func sameViolations(t *testing.T, what string, got, want []Violation, sigma ged.Set) bool {
	g, w := violationBytes(got, sigma), violationBytes(want, sigma)
	if g != w {
		t.Logf("%s reports\n%swant\n%s", what, g, w)
	}
	return g == w
}

// entryPointsMatchOracle holds RunCtx, RunParallelCtx(1..4) and
// TouchingCtx on a fresh validator against the oracle, with and without
// a limit: same violations, same order, same recorded literal. Every
// worker count reports the sequential scan's sequence.
func entryPointsMatchOracle(t *testing.T, seed int64, rng *rand.Rand, g *graph.Graph, val *Validator) bool {
	ctx, sigma := context.Background(), val.sigma
	for _, limit := range []int{0, 1, 3} {
		at := fmt.Sprintf("seed %d limit %d: ", seed, limit)
		seq := oracleScan(val, limit)
		got, err := val.RunCtx(ctx, limit)
		if err != nil || !sameViolations(t, at+"RunCtx", got, seq, sigma) {
			return false
		}
		for workers := 1; workers <= 4; workers++ {
			got, err := val.RunParallelCtx(ctx, limit, workers)
			if err != nil || !sameViolations(t, fmt.Sprintf("%sRunParallelCtx(%d)", at, workers), got, seq, sigma) {
				return false
			}
		}
		nodes := []graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
		got, err = val.TouchingCtx(ctx, nodes, limit)
		if err != nil || !sameViolations(t, fmt.Sprintf("%sTouchingCtx(%v)", at, nodes), got, oracleCanonical(val, limit, touches(nodes)), sigma) {
			return false
		}
	}
	return true
}

// TestDenseValidatorMatchesOracle covers RunCtx, RunParallelCtx
// and TouchingCtx, with and without a limit.
func TestDenseValidatorMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, sigma := denseGraph(rng), denseSigma(rng)
		return entryPointsMatchOracle(t, seed, rng, g, NewValidatorOn(g.Freeze(), sigma))
	}
	if err := quick.Check(f, quickCfg(1201, 300)); err != nil {
		t.Error(err)
	}
}

// TestDenseValidatorCancellation: a context cancelled mid-enumeration
// leaves the sequential scan with a prefix of the oracle's sequence and
// ctx's error — not the oracle's own cut at the same countdown: a scan
// that abandons partial bindings polls ctx less often than one that
// completes every match. The parallel scan, whose cut point is not
// deterministic, returns a prefix of that sequence too; the touched
// search a canonical subset of the full answer.
func TestDenseValidatorCancellation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, sigma := denseGraph(rng), denseSigma(rng)
		val := NewValidatorOn(g.Freeze(), sigma)
		seq := oracleScan(val, 0)
		full := oracleCanonical(val, 0, nil)
		inFull := make(map[string]bool, len(full))
		for _, v := range full {
			inFull[violationBytes([]Violation{v}, sigma)] = true
		}
		subset := func(vs []Violation) bool {
			sorted := append([]Violation(nil), vs...)
			sortViolations(sorted, sigma)
			if violationBytes(sorted, sigma) != violationBytes(vs, sigma) {
				return false
			}
			for _, v := range vs {
				if !inFull[violationBytes([]Violation{v}, sigma)] {
					return false
				}
			}
			return true
		}
		prefix := func(what string, k int, got []Violation, err error) bool {
			return (err != nil || len(got) == len(seq)) && len(got) <= len(seq) &&
				sameViolations(t, fmt.Sprintf("seed %d cut %d (err %v): %s", seed, k, err, what), got, seq[:len(got)], sigma)
		}
		for _, k := range []int{0, 1, 2, 5, 11, 1 << 30} {
			ctx := countdown(k)
			got, err := val.RunCtx(ctx, 0)
			if (err != nil) != ctx.expired() || !prefix("RunCtx", k, got, err) {
				return false
			}
			all := g.Nodes()
			if got, err := val.TouchingCtx(countdown(k), all, 0); !subset(got) || (err == nil && len(got) != len(full)) {
				t.Logf("seed %d cut %d: TouchingCtx err=%v, %d of %d", seed, k, err, len(got), len(full))
				return false
			}
			if got, err := val.RunParallelCtx(countdown(k), 0, 3); !prefix("RunParallelCtx(3)", k, got, err) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(1202, 150)); err != nil {
		t.Error(err)
	}
}

// denseMutate grows g: nodes, edges (self-loops too) and attribute
// writes over p, q and — unlike denseGraph — r, so deltas introduce an
// attribute the compiled rules had no id for.
func denseMutate(g *graph.Graph, rng *rand.Rand, nOps int) {
	labels := []graph.Label{"a", "b"}
	attrs := []graph.Attr{"p", "q", "r"}
	for i := 0; i < nOps; i++ {
		n := graph.NodeID(rng.Intn(g.NumNodes()))
		switch rng.Intn(5) {
		case 0:
			g.AddNode(labels[rng.Intn(len(labels))])
		case 1:
			g.AddEdge(n, "e", graph.NodeID(rng.Intn(g.NumNodes())))
		default:
			g.SetAttr(n, attrs[rng.Intn(len(attrs))], denseValues[rng.Intn(len(denseValues))])
		}
	}
}

// TestDenseStoreMatchesOracle: a store maintained through Apply holds,
// after every delta, the oracle's full answer on the advanced snapshot —
// recorded literals included, which exercises recheck's evidence
// refresh on the stored binding vectors — and agrees with failingLiteral
// entry by entry.
func TestDenseStoreMatchesOracle(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, sigma := denseGraph(rng), denseSigma(rng)
		st, err := NewViolationStoreParallelCtx(ctx, NewValidatorOn(g.Freeze(), sigma), 1+rng.Intn(3))
		if err != nil {
			t.Log(err)
			return false
		}
		for step := 0; step < 6; step++ {
			from := st.Snapshot().SourceVersion()
			denseMutate(g, rng, 1+rng.Intn(4))
			d := g.DeltaSince(from)
			if err := st.Apply(ctx, st.Snapshot().Apply(d), d.TouchedNodes()); err != nil {
				t.Log(err)
				return false
			}
			// A fresh validator on the advanced snapshot: the oracle must
			// not share the rebased literals under test.
			want := oracleCanonical(NewValidatorOn(st.Snapshot(), sigma), 0, nil)
			if !sameViolations(t, fmt.Sprintf("seed %d step %d: store", seed, step), st.Violations(), want, sigma) {
				return false
			}
			for _, v := range st.Violations() {
				if l, ok := failingLiteral(st.Snapshot(), v); !ok || l != *v.Literal {
					t.Logf("seed %d step %d: failingLiteral disagrees on %s", seed, step, violationBytes([]Violation{v}, sigma))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(1203, 300)); err != nil {
		t.Error(err)
	}
}

// TestRebaseResolvesLateAttribute: literals are compiled once per
// validator and carried across Rebase, so an attribute no node carried
// at compile time (id -1: the literal is false, and must not panic)
// has to be picked up when a delta introduces it.
func TestRebaseResolvesLateAttribute(t *testing.T) {
	ctx := context.Background()
	g := graph.New()
	a, b := g.AddNode("n"), g.AddNode("n")
	g.AddEdge(a, "e", b)
	q := pattern.New()
	q.AddVar("x", "n")
	q.AddVar("y", "n")
	q.AddEdge("x", "e", "y")
	late := ged.New("late", q,
		[]ged.Literal{ged.ConstLit("x", "late", graph.Int(1))},
		[]ged.Literal{ged.VarLit("x", "late", "y", "late")})
	never := ged.New("never", q, nil, []ged.Literal{ged.ConstLit("y", "never", graph.Int(1))})
	sigma := ged.Set{late, never}

	val := NewValidatorOn(g.Freeze(), sigma)
	st, err := NewViolationStoreCtx(ctx, val)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, v *Validator, want string) {
		t.Helper()
		got, err := v.RunCtx(ctx, 0)
		if err != nil || violationBytes(got, sigma) != want {
			t.Errorf("%s: validator reports\n%swant\n%s", stage, violationBytes(got, sigma), want)
		}
		if got := violationBytes(st.Violations(), sigma); got != want {
			t.Errorf("%s: store holds\n%swant\n%s", stage, got, want)
		}
		if oracle := violationBytes(oracleCanonical(NewValidatorOn(v.Snapshot(), sigma), 0, nil), sigma); oracle != want {
			t.Fatalf("%s: test expectation is wrong, oracle says\n%s", stage, oracle)
		}
	}
	apply := func(mutate func()) *Validator {
		from := st.Snapshot().SourceVersion()
		mutate()
		d := g.DeltaSince(from)
		post := st.Snapshot().Apply(d)
		if err := st.Apply(ctx, post, d.TouchedNodes()); err != nil {
			t.Fatal(err)
		}
		val = val.Rebase(post)
		return val
	}

	// Neither attribute exists: late's antecedent is false, never's
	// consequent is false on the one match.
	neverOnly := "1:x=0;y=1;y.never = 1\n"
	check("compile time", val, neverOnly)

	// An unrelated delta leaves both attributes absent.
	check("still absent", apply(func() { g.SetAttr(a, "other", graph.Int(1)) }), neverOnly)

	// The delta introduces late on x only: X holds now, Y fails.
	check("introduced", apply(func() { g.SetAttr(a, "late", graph.Int(1)) }),
		"0:x=0;y=1;x.late = y.late\n"+neverOnly)

	// And the next one repairs it.
	check("repaired", apply(func() { g.SetAttr(b, "late", graph.Int(1)) }), neverOnly)
}
