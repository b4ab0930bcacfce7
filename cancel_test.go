package gedlib_test

// Cancellation contract of the facade: every Engine method takes a
// context and aborts early when it is cancelled. The tests below prove
// the "early" part with a workload whose full enumeration is orders of
// magnitude beyond the deadline, and the plumbing with pre-cancelled
// contexts across the other entry points.

import (
	"context"
	"errors"
	"testing"
	"time"

	"gedlib"
)

// explosiveInstance builds a validation workload with a combinatorially
// huge match space: a complete digraph on n nodes and a 4-cycle
// pattern, giving ~n^4 candidate tuples. The rule's consequent holds
// everywhere but closes only with the last variable bound, so nothing
// settles early and an uncancelled run would enumerate all of them.
func explosiveInstance(n int) (*gedlib.Graph, gedlib.RuleSet) {
	g := gedlib.NewGraph()
	ids := make([]gedlib.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNodeAttrs("a", map[gedlib.Attr]gedlib.Value{"p": gedlib.Int(1)})
	}
	for _, u := range ids {
		for _, v := range ids {
			if u != v {
				g.AddEdge(u, "e", v)
			}
		}
	}
	q := gedlib.NewPattern()
	q.AddVar("w", "a").AddVar("x", "a").AddVar("y", "a").AddVar("z", "a")
	q.AddEdge("w", "e", "x")
	q.AddEdge("x", "e", "y")
	q.AddEdge("y", "e", "z")
	q.AddEdge("z", "e", "w")
	rule := gedlib.NewRule("slow", q, nil, []gedlib.Literal{
		gedlib.VarLit("w", "p", "y", "p"), gedlib.VarLit("x", "p", "z", "p")})
	return g, gedlib.RuleSet{rule}
}

// TestValidateCancelStopsEarly is the headline cancellation proof: the
// instance has ~100^4 candidate matches (hours of enumeration), and a
// 30ms deadline aborts the run within a comfortable margin.
func TestValidateCancelStopsEarly(t *testing.T) {
	g, sigma := explosiveInstance(100)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := gedlib.New().Validate(ctx, g, sigma)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if !gedlib.IsCancellation(err) {
		t.Fatalf("IsCancellation must recognize %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("validation kept running %v after a 30ms deadline", elapsed)
	}
}

// TestValidateCancelInsideMatchlessSearch aborts a search that never
// completes a single match: the pattern's closing edge label does not
// occur in the graph, so the yield callback (where the per-match ctx
// check lives) never fires and only the matcher's internal abort hook
// can stop the ~150^3 × 149 partial-binding exploration.
func TestValidateCancelInsideMatchlessSearch(t *testing.T) {
	n := 150
	g := gedlib.NewGraph()
	ids := make([]gedlib.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode("a")
	}
	for _, u := range ids {
		for _, v := range ids {
			if u != v {
				g.AddEdge(u, "e", v)
			}
		}
	}
	q := gedlib.NewPattern()
	q.AddVar("w", "a").AddVar("x", "a").AddVar("y", "a").AddVar("z", "a")
	q.AddEdge("w", "e", "x")
	q.AddEdge("x", "e", "y")
	q.AddEdge("y", "e", "z")
	q.AddEdge("z", "missing_label", "w") // never matches: no such edge
	sigma := gedlib.RuleSet{gedlib.NewRule("matchless", q, nil, gedlib.False("w"))}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	vs, err := gedlib.New().Validate(ctx, g, sigma)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v (found %d violations)", err, len(vs))
	}
	if elapsed > 5*time.Second {
		t.Fatalf("match-free search kept running %v after a 30ms deadline", elapsed)
	}
}

// TestValidateParallelCancelStopsEarly proves the same for the
// data-parallel validator: every worker honors the context.
func TestValidateParallelCancelStopsEarly(t *testing.T) {
	g, sigma := explosiveInstance(100)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := gedlib.New(gedlib.WithWorkers(4)).Validate(ctx, g, sigma)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("parallel validation kept running %v after a 30ms deadline", elapsed)
	}
}

// TestCancelledContextAbortsEveryEntryPoint checks the plumbing: an
// already-cancelled context makes each analysis return promptly with
// context.Canceled instead of computing.
func TestCancelledContextAbortsEveryEntryPoint(t *testing.T) {
	eng := gedlib.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	sigma, err := gedlib.ParseRules(albumKeySrc)
	if err != nil {
		t.Fatal(err)
	}
	g := gedlib.NewGraph()
	for i := 0; i < 2; i++ {
		g.AddNodeAttrs("album", map[gedlib.Attr]gedlib.Value{
			"title": gedlib.String("Bleach"), "release": gedlib.Int(1989)})
	}

	if _, err := eng.Validate(ctx, g, sigma); !errors.Is(err, context.Canceled) {
		t.Errorf("Validate: expected Canceled, got %v", err)
	}
	if _, err := eng.ValidateIncremental(ctx, g, sigma, g.Nodes()); !errors.Is(err, context.Canceled) {
		t.Errorf("ValidateIncremental: expected Canceled, got %v", err)
	}
	if _, err := eng.Repair(ctx, g, sigma); !errors.Is(err, context.Canceled) {
		t.Errorf("Repair: expected Canceled, got %v", err)
	}
	if _, err := eng.Chase(ctx, g, sigma); !errors.Is(err, context.Canceled) {
		t.Errorf("Chase: expected Canceled, got %v", err)
	}
	if _, err := eng.CheckSat(ctx, sigma); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckSat: expected Canceled, got %v", err)
	}
	if _, err := eng.Implies(ctx, sigma, sigma[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Implies: expected Canceled, got %v", err)
	}
	if _, err := eng.Prove(ctx, sigma, sigma[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Prove: expected Canceled, got %v", err)
	}
	if err := eng.CheckProof(ctx, sigma, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckProof: expected Canceled, got %v", err)
	}
	if _, err := eng.Discover(ctx, g, gedlib.DiscoverOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Discover: expected Canceled, got %v", err)
	}
	q := &gedlib.Query{Pattern: sigma[0].Pattern}
	if _, err := eng.OptimizeQuery(ctx, q, sigma); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeQuery: expected Canceled, got %v", err)
	}
	if _, err := eng.Satisfies(ctx, g, sigma); !errors.Is(err, context.Canceled) {
		t.Errorf("Satisfies: expected Canceled, got %v", err)
	}
}

// TestChaseDepthBound: with WithChaseDepth(1) any chase that applies a
// step needs a second round to confirm the fixpoint, so the duplicate
// albums cannot be resolved within the bound.
func TestChaseDepthBound(t *testing.T) {
	sigma, err := gedlib.ParseRules(albumKeySrc)
	if err != nil {
		t.Fatal(err)
	}
	g := gedlib.NewGraph()
	for i := 0; i < 2; i++ {
		g.AddNodeAttrs("album", map[gedlib.Attr]gedlib.Value{
			"title": gedlib.String("Bleach"), "release": gedlib.Int(1989)})
	}

	bounded := gedlib.New(gedlib.WithChaseDepth(1))
	if _, err := bounded.Chase(context.Background(), g, sigma); !errors.Is(err, gedlib.ErrChaseDepthExceeded) {
		t.Fatalf("expected ErrChaseDepthExceeded, got %v", err)
	}
	if _, err := bounded.Repair(context.Background(), g, sigma); !errors.Is(err, gedlib.ErrChaseDepthExceeded) {
		t.Fatalf("Repair: expected ErrChaseDepthExceeded, got %v", err)
	}

	// A generous bound converges.
	roomy := gedlib.New(gedlib.WithChaseDepth(16))
	r, err := roomy.Repair(context.Background(), g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Repaired || r.Graph.NumNodes() != 1 {
		t.Fatalf("bounded-but-sufficient repair failed: %+v", r)
	}
}

// TestValidateCancelReturnsPartial: the sequential validator hands back
// what it found before the abort.
func TestValidateCancelReturnsPartial(t *testing.T) {
	g, sigma := explosiveInstance(40)
	// Make every match a violation so partial results accumulate.
	sigma[0].Y = []gedlib.Literal{gedlib.ConstLit("w", "missing", gedlib.Int(1))}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	vs, err := gedlib.New().Validate(ctx, g, sigma)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if len(vs) == 0 {
		t.Fatal("expected partial violations before the abort")
	}
}
