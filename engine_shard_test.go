package gedlib_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gedlib"
	"gedlib/workload"
)

// orderedCanon renders a violation list preserving its order, including
// the recorded failing literal — "byte-identical canonical sets" is the
// sharded path's contract, so order and evidence both count.
func orderedCanon(vs []gedlib.Violation) string {
	out := ""
	for _, v := range vs {
		out += v.GED.Name
		for _, x := range v.GED.Pattern.Vars() {
			out += fmt.Sprintf(":%s=%d", x, v.Match[x])
		}
		out += fmt.Sprintf(" !%v\n", v.Literal)
	}
	return out
}

// TestEngineShardedMatchesMonolithic: WithShards(P) Validate and Apply
// must produce byte-identical canonical violation sets to the P=1
// monolithic engine across a random update stream, for both
// partitioners.
func TestEngineShardedMatchesMonolithic(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	for _, p := range []int{2, 4} {
		for _, part := range []gedlib.Partitioner{gedlib.HashPartitioner(), gedlib.GreedyPartitioner()} {
			t.Run(fmt.Sprintf("p%d_%s", p, part.Name()), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(91 + p)))
				g, _ := workload.KnowledgeBase(31, 30, 0.2)
				sharded := gedlib.New(gedlib.WithShards(p), gedlib.WithPartitioner(part))
				// Two workers put the monolithic Validate on the
				// canonically-sorted parallel path — the order the
				// sharded merge must reproduce (the sequential path
				// reports enumeration order instead).
				mono := gedlib.New(gedlib.WithWorkers(2))
				for step := 0; step < 10; step++ {
					gotV, err := sharded.Validate(ctx, g, sigma)
					if err != nil {
						t.Fatal(err)
					}
					wantV, err := mono.Validate(ctx, g, sigma)
					if err != nil {
						t.Fatal(err)
					}
					if orderedCanon(gotV) != orderedCanon(wantV) {
						t.Fatalf("step %d: sharded Validate diverged\n got:\n%s\nwant:\n%s",
							step, orderedCanon(gotV), orderedCanon(wantV))
					}
					gotA, err := sharded.Apply(ctx, g, sigma)
					if err != nil {
						t.Fatal(err)
					}
					wantA, err := mono.Apply(ctx, g, sigma)
					if err != nil {
						t.Fatal(err)
					}
					if orderedCanon(gotA) != orderedCanon(wantA) {
						t.Fatalf("step %d: sharded Apply diverged\n got:\n%s\nwant:\n%s",
							step, orderedCanon(gotA), orderedCanon(wantA))
					}
					for k := 0; k < 1+rng.Intn(4); k++ {
						switch rng.Intn(4) {
						case 0:
							g.SetAttr(gedlib.NodeID(rng.Intn(g.NumNodes())), "type", gedlib.String("programmer"))
						case 1:
							g.SetAttr(gedlib.NodeID(rng.Intn(g.NumNodes())), "type", gedlib.String("video game"))
						case 2:
							g.AddNode("person")
						default:
							g.AddEdge(gedlib.NodeID(rng.Intn(g.NumNodes())), "create",
								gedlib.NodeID(rng.Intn(g.NumNodes())))
						}
					}
				}
			})
		}
	}
}

// TestEngineShardedQuickDifferential drives the sharded-vs-monolithic
// differential with testing/quick generating the configuration space:
// random graph seed, shard count, partitioner and delta stream. Both
// Validate and Apply must return byte-identical canonical violation
// sets at every step.
func TestEngineShardedQuickDifferential(t *testing.T) {
	ctx := context.Background()
	labels := []gedlib.Label{"person", "product", "org"}
	attrs := []gedlib.Attr{"a", "b", "c"}
	f := func(seed int64, pRaw, steps uint8, useGreedy bool) bool {
		p := 2 + int(pRaw%3) // 2..4 shards
		part := gedlib.HashPartitioner()
		if useGreedy {
			part = gedlib.GreedyPartitioner()
		}
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomPropertyGraph(seed, 30+int(pRaw)%40, 2.0, labels, attrs, 3)
		sigma := workload.RandomGEDSet(seed+1, 3, 3, labels, attrs, 3)
		sharded := gedlib.New(gedlib.WithShards(p), gedlib.WithPartitioner(part))
		mono := gedlib.New(gedlib.WithWorkers(2))
		for step := 0; step <= int(steps%4); step++ {
			gotV, err := sharded.Validate(ctx, g, sigma)
			if err != nil {
				t.Error(err)
				return false
			}
			wantV, err := mono.Validate(ctx, g, sigma)
			if err != nil {
				t.Error(err)
				return false
			}
			if orderedCanon(gotV) != orderedCanon(wantV) {
				t.Errorf("seed %d p=%d step %d: Validate diverged", seed, p, step)
				return false
			}
			gotA, err := sharded.Apply(ctx, g, sigma)
			if err != nil {
				t.Error(err)
				return false
			}
			wantA, err := mono.Apply(ctx, g, sigma)
			if err != nil {
				t.Error(err)
				return false
			}
			if orderedCanon(gotA) != orderedCanon(wantA) {
				t.Errorf("seed %d p=%d step %d: Apply diverged", seed, p, step)
				return false
			}
			for k := 0; k < 1+rng.Intn(5); k++ {
				n := g.NumNodes()
				switch rng.Intn(4) {
				case 0:
					g.AddNode(labels[rng.Intn(len(labels))])
				case 1:
					g.AddEdge(gedlib.NodeID(rng.Intn(n)), "e", gedlib.NodeID(rng.Intn(n)))
				case 2:
					g.SetAttr(gedlib.NodeID(rng.Intn(n)), attrs[rng.Intn(len(attrs))],
						gedlib.Int(rng.Intn(3)))
				default:
					g.AddEdge(gedlib.NodeID(rng.Intn(n)), "likes", gedlib.NodeID(rng.Intn(n)))
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineShardedConcurrentApplies: sharded Applies on distinct
// graphs run concurrently (the per-graph lock serializes only within a
// graph); must be race-clean under -race.
func TestEngineShardedConcurrentApplies(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi4()}
	eng := gedlib.New(gedlib.WithShards(3), gedlib.WithPartitioner(gedlib.GreedyPartitioner()))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + i)))
			g, _ := workload.KnowledgeBase(int64(40+i), 25, 0.2)
			for step := 0; step < 6; step++ {
				if _, err := eng.Apply(ctx, g, sigma); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				g.SetAttr(gedlib.NodeID(rng.Intn(g.NumNodes())), "type", gedlib.String("programmer"))
			}
		}(i)
	}
	wg.Wait()
}

// TestEngineShardStats pins the stats surface: a sharded session
// reports its topology from Open on and per-shard violation counts once
// Apply has seeded them; a monolithic session reports nothing.
func TestEngineShardStats(t *testing.T) {
	ctx := context.Background()
	g, _ := workload.KnowledgeBase(31, 30, 0.2)
	sigma := gedlib.RuleSet{workload.PaperPhi1()}

	mono, err := gedlib.New().Open(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mono.ShardStats(); ok {
		t.Fatal("monolithic session reported shard stats")
	}
	s, err := gedlib.New(gedlib.WithShards(2)).Open(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.ShardStats()
	if !ok {
		t.Fatal("no stats after Open")
	}
	if st.Shards != 2 || st.Partitioner != "hash" || st.ShardViolations != nil {
		t.Fatalf("stats before Apply = %+v", st)
	}
	owned := 0
	for _, n := range st.OwnedNodes {
		owned += n
	}
	if owned != g.NumNodes() {
		t.Fatalf("owned nodes %d != %d", owned, g.NumNodes())
	}
	vs, err := s.Apply(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ = s.ShardStats(); len(st.ShardViolations) != 2 {
		t.Fatalf("per-shard violation counts = %v", st.ShardViolations)
	}
	total := 0
	for _, n := range st.ShardViolations {
		total += n
	}
	if total != len(vs) {
		t.Fatalf("per-shard counts sum to %d, Apply reports %d", total, len(vs))
	}
}
