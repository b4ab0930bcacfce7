package chase

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// The chase has one loop: round 1 matches on the frozen base graph,
// every round after a merge on the attribute-free quotient, and the
// attribute-bearing coercion is built only when the result is asked for
// it. These tests pin that loop against the refreeze oracle, which
// re-coerces in full and re-freezes every round.

// sameOutcome fails unless got and want are the same chase outcome: the
// same verdict and, when that is "consistent", the same relation and
// witness (sameChase), with no full coercion built for it until one is
// asked for, and exactly one after.
func sameOutcome(t *testing.T, at string, g *graph.Graph, got, want chaseTally) (consistent bool) {
	t.Helper()
	if got.err != nil || want.err != nil {
		t.Fatalf("%s: errors %v / %v", at, got.err, want.err)
	}
	if got.res.Consistent() != want.res.Consistent() {
		t.Fatalf("%s: consistent=%v, the oracle's %v", at, got.res.Consistent(), want.res.Consistent())
	}
	if !got.res.Consistent() {
		// ⊥ has no canonical witness: which conflict is met first is up
		// to the application order, and the oracle's is another.
		if got.res.Coercion() != nil || got.count("ged_chase_coercions_total") != 0 {
			t.Fatalf("%s: an invalid chase built a coercion", at)
		}
		return false
	}
	sameChase(t, at, g, got.res, want.res)
	lazyCoercion(t, at, got)
	return true
}

// mergingInstance draws a graph and key-like GEDs under which node
// classes actually merge, round after round — randomInstance's chases
// mostly end in their first conflict or without an id step. A quarter
// of the nodes is wildcard-labeled; k is the key attribute, v rides
// along and mostly agrees between nodes of equal k (when it does not,
// identifying them is an attribute conflict); identifying an a with a b
// through a wildcard pattern is a label conflict.
func mergingInstance(rng *rand.Rand) (*graph.Graph, ged.Set) {
	label := func() graph.Label { return []graph.Label{"a", "b", "a", graph.Wildcard}[rng.Intn(4)] }
	g := graph.New()
	n := 6 + rng.Intn(10)
	for i := 0; i < n; i++ {
		id := g.AddNode(label())
		k := rng.Intn(n/2 + 1)
		if rng.Intn(6) > 0 {
			g.SetAttr(id, "k", graph.Int(k))
		}
		switch rng.Intn(12) {
		case 0:
			g.SetAttr(id, "v", graph.Int(-1))
		case 1, 2, 3, 4:
			g.SetAttr(id, "v", graph.Int(k))
		}
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
	}
	var sigma ged.Set
	for i := 1 + rng.Intn(3); i > 0; i-- {
		q := pattern.New()
		switch rng.Intn(4) {
		case 0, 1: // a key on k: two components joined on x.k = y.k
			l := label()
			q.AddVar("x", l).AddVar("y", l)
			sigma = append(sigma, ged.New("key", q,
				[]ged.Literal{ged.VarLit("x", "k", "y", "k")},
				[]ged.Literal{ged.IDLit("x", "y")}))
		case 2: // same-keyed successors of one node are one node
			q.AddVar("x", graph.Wildcard).AddVar("y", label()).AddVar("z", graph.Wildcard)
			q.AddEdge("x", "e", "y").AddEdge("x", "e", "z")
			sigma = append(sigma, ged.New("succ", q,
				[]ged.Literal{ged.VarLit("y", "k", "z", "k")},
				[]ged.Literal{ged.IDLit("y", "z")}))
		default: // v flows along e, generating it where absent
			q.AddVar("x", label()).AddVar("y", graph.Wildcard).AddEdge("x", "e", "y")
			sigma = append(sigma, ged.New("flow", q,
				[]ged.Literal{ged.ConstLit("x", "k", graph.Int(rng.Intn(3)))},
				[]ged.Literal{ged.VarLit("x", "v", "y", "v"), ged.ConstLit("y", "w", graph.Int(1))}))
		}
	}
	return g, sigma
}

// TestDeltaChaseEquivalentToRefreeze: on random instances — wildcard-
// labeled nodes, attributes only some nodes carry, patterns of one and
// of two components — the loop and the oracle reach the same verdict,
// node partition, constants and witness, label and attribute conflicts
// included, and the loop re-quotients when it goes on after identifying
// nodes, never before.
func TestDeltaChaseEquivalentToRefreeze(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(191))
	var consistent, labelConflicts, attrConflicts, wildcards, quotients, multi int
	for trial := 0; trial < 900; trial++ {
		at := fmt.Sprintf("trial %d", trial)
		g, sigma := mergingInstance(rng)
		if trial%3 == 0 {
			g, sigma = randomInstance(rng)
		}
		got := tallyChase(ctx, g, sigma, nil, 0, false)
		want := tallyChase(ctx, g, sigma, nil, 0, true)
		if !sameOutcome(t, at, g, got, want) {
			if got.res.Eq.Conflict().Kind == LabelConflict {
				labelConflicts++
			} else {
				attrConflicts++
			}
			continue
		}
		consistent++
		// Node merges are the only steps whose count no application
		// order can change: each one removes exactly one class.
		merged := g.NumNodes() - len(got.res.Coercion().RepOf)
		for _, res := range []*Result{got.res, want.res} {
			if n := idSteps(sigma, res); n != merged {
				t.Fatalf("%s: %d id steps for %d merged classes", at, n, merged)
			}
		}
		if merged > 0 && got.quotients == 0 {
			t.Fatalf("%s: %d classes merged without a quotient: the round after matched on a stale host", at, merged)
		}
		if got.quotients >= got.rounds {
			t.Fatalf("%s: %d quotients in %d rounds: round 1 did not match on the base snapshot", at, got.quotients, got.rounds)
		}
		quotients += got.quotients
		if got.quotients > 1 {
			multi++
		}
		for _, id := range g.Nodes() {
			if g.Label(id) == graph.Wildcard && got.res.Eq.NodeRoot(id) != id {
				wildcards++
				break
			}
		}
	}
	t.Logf("%d consistent (%d quotients, %d runs with several, %d merging a wildcard node), %d label conflicts, %d attribute conflicts",
		consistent, quotients, multi, wildcards, labelConflicts, attrConflicts)
	if consistent < 200 || labelConflicts < 20 || attrConflicts < 20 || wildcards < 20 || quotients < 100 || multi < 5 {
		t.Fatal("the generators lost their bite")
	}
}

// idSteps counts the steps of res that enforced an id literal.
func idSteps(sigma ged.Set, res *Result) int {
	n := 0
	for _, st := range res.Steps {
		if k, _ := sigma[st.GED].Y[st.Literal].Kind(); k == IDKind {
			n++
		}
	}
	return n
}

// TestDeltaChaseSeeded: seeds are applied before round 1. An id seed
// identifies nodes while the host is still the base snapshot, so it must
// be the first merge batch — round 1 then matches on a quotient — and
// Eq_X may already be inconsistent, which ends the chase before any
// round.
func TestDeltaChaseSeeded(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(193))
	var consistent, merging, inconsistentSeeds int
	for trial := 0; trial < 900; trial++ {
		at := fmt.Sprintf("trial %d", trial)
		g, sigma := mergingInstance(rng)
		if trial%3 == 0 {
			g, sigma = randomInstance(rng)
		}
		node := func() graph.NodeID { return graph.NodeID(rng.Intn(g.NumNodes())) }
		nodes := make(map[pattern.Var]graph.NodeID)
		for _, v := range instanceVars {
			nodes[v] = node()
		}
		seeds := []Seed{
			{Literal: ged.IDLit("x", "y"), Nodes: map[pattern.Var]graph.NodeID{"x": node(), "y": node()}},
			{Literal: sigma[0].Y[0], Nodes: nodes},
		}
		got := tallyChase(ctx, g, sigma, seeds, 0, false)
		want := tallyChase(ctx, g, sigma, seeds, 0, true)
		if !sameOutcome(t, at, g, got, want) {
			if got.rounds == 0 {
				inconsistentSeeds++
			}
			continue
		}
		consistent++
		a, b := seeds[0].Nodes["x"], seeds[0].Nodes["y"]
		if !got.res.Eq.SameNode(a, b) {
			t.Fatalf("%s: seeded nodes %d and %d not identified", at, a, b)
		}
		if a != b {
			merging++
			if got.quotients == 0 {
				t.Fatalf("%s: seeds merged %d and %d, yet round 1 matched on the base snapshot", at, a, b)
			}
		}
	}
	t.Logf("%d consistent, %d with a merging id seed, %d with an inconsistent Eq_X", consistent, merging, inconsistentSeeds)
	if consistent < 60 || merging < 40 || inconsistentSeeds < 20 {
		t.Fatal("the generators lost their bite")
	}
}

// siblingKey identifies two children of one parent that carry the same
// name — a connected pattern, so even the oracle's whole-pattern
// enumeration stays linear in the graph.
func siblingKey() *ged.GED {
	q := pattern.New()
	q.AddVar("p", graph.Wildcard).AddVar("x", "n").AddVar("y", "n")
	q.AddEdge("x", "parent", "p").AddEdge("y", "parent", "p")
	return ged.New("sibling", q,
		[]ged.Literal{ged.VarLit("x", "name", "y", "name")},
		[]ged.Literal{ged.IDLit("x", "y")})
}

// TestDeltaChaseLargeGraph runs the loop on a forest of 4,800 nodes —
// the size at which the chase used to switch to patching its coercion —
// where same-named siblings merge level by level: identifying two
// children makes their children siblings only in the next round's
// quotient.
func TestDeltaChaseLargeGraph(t *testing.T) {
	g := graph.New()
	add := func(label graph.Label, name int, parent graph.NodeID) graph.NodeID {
		id := g.AddNodeAttrs(label, map[graph.Attr]graph.Value{"name": graph.Int(name)})
		if parent >= 0 {
			g.AddEdge(id, "parent", parent)
		}
		return id
	}
	rng := rand.New(rand.NewSource(197))
	for r := 0; r < 120; r++ {
		level := []graph.NodeID{add("root", r, -1)}
		for depth := 0; depth < 3; depth++ {
			var next []graph.NodeID
			for _, p := range level {
				for k := 0; k < 3; k++ {
					// Two names for three children: some pair always merges.
					next = append(next, add("n", rng.Intn(2), p))
				}
			}
			level = next
		}
	}
	if g.NumNodes() <= 4096 {
		t.Fatalf("only %d nodes", g.NumNodes())
	}
	ctx, sigma := context.Background(), ged.Set{siblingKey()}
	got := tallyChase(ctx, g, sigma, nil, 0, false)
	want := tallyChase(ctx, g, sigma, nil, 0, true)
	if !sameOutcome(t, "forest", g, got, want) {
		t.Fatal("the forest chase is inconsistent")
	}
	if len(got.res.Steps) != len(want.res.Steps) {
		// One connected pattern streams from the matcher in the oracle's
		// own order, so even the traces agree.
		t.Fatalf("%d steps, the oracle's %d", len(got.res.Steps), len(want.res.Steps))
	}
	if got.rounds != 4 || got.quotients != 3 || got.rounds != want.rounds {
		t.Fatalf("%d rounds (oracle %d) and %d quotients, want 4 and 3: one level a round, each on a fresh quotient",
			got.rounds, want.rounds, got.quotients)
	}
	t.Logf("%d nodes, %d steps, %d classes", g.NumNodes(), len(got.res.Steps), len(got.res.Coercion().RepOf))
}
