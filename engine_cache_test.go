package gedlib_test

import (
	"context"
	"testing"

	"gedlib"
	"gedlib/workload"
)

// TestEngineSnapshotCacheInvalidation: the engine's cached snapshot is
// keyed on the graph's mutation counter, so a mutation between Validate
// calls must be visible — stale results would mean the cache failed to
// invalidate.
func TestEngineSnapshotCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	eng := gedlib.New()
	g := gedlib.NewGraph()
	game := g.AddNode("product")
	g.SetAttr(game, "type", gedlib.String("video game"))
	dev := g.AddNode("person")
	g.SetAttr(dev, "type", gedlib.String("artist"))
	g.AddEdge(dev, "create", game)

	sigma := gedlib.RuleSet{workload.PaperPhi1()}
	vs, err := eng.Validate(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("planted violation not found: %d violations", len(vs))
	}

	// Re-validate without mutation: cached snapshot, same answer.
	vs, err = eng.Validate(ctx, g, sigma)
	if err != nil || len(vs) != 1 {
		t.Fatalf("cached re-validation changed the answer: %d violations, err %v", len(vs), err)
	}

	// Repair the creator's type; the next call must see the fix.
	g.SetAttr(dev, "type", gedlib.String("programmer"))
	vs, err = eng.Validate(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("stale snapshot: %d violations after repair", len(vs))
	}

	// Structural mutation invalidates too.
	game2 := g.AddNode("product")
	g.SetAttr(game2, "type", gedlib.String("video game"))
	g.AddEdge(dev, "create", game2)
	g.SetAttr(dev, "type", gedlib.String("gardener"))
	vs, err = eng.Validate(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("post-mutation validation found %d violations, want 2", len(vs))
	}
}

// TestEngineSnapshotCacheParallelWorkers: the cached snapshot is shared
// with the parallel validator, and every worker count reports the
// sequential violations in the sequential order — also under a limit,
// which keeps the same prefix.
func TestEngineSnapshotCacheParallelWorkers(t *testing.T) {
	ctx := context.Background()
	g, stats := workload.KnowledgeBase(3, 60, 0.3)
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	seq, err := gedlib.New().Validate(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		par, err := gedlib.New(gedlib.WithWorkers(workers)).Validate(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if orderedCanon(par) != orderedCanon(seq) {
			t.Fatalf("workers %d diverged from the sequential scan:\n got:\n%s\nwant:\n%s", workers, orderedCanon(par), orderedCanon(seq))
		}
		limited, err := gedlib.New(gedlib.WithWorkers(workers), gedlib.WithViolationLimit(3)).Validate(ctx, g, sigma)
		if err != nil || len(seq) < 3 || orderedCanon(limited) != orderedCanon(seq[:3]) {
			t.Fatalf("workers %d limit 3 kept %d violations, not the sequential prefix (err %v)", workers, len(limited), err)
		}
	}
	if stats.Total() > 0 && len(seq) == 0 {
		t.Error("planted inconsistencies but found no violations")
	}
}
