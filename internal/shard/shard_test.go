package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/reason"
)

var testLabels = []graph.Label{"person", "product", "org"}
var testAttrs = []graph.Attr{"a", "b", "c"}

// renderViolations turns a canonical violation list into one comparable
// string: rule index, bindings in variable order, and the recorded
// failing literal.
func renderViolations(vs []reason.Violation, sigma ged.Set) string {
	idx := make(map[*ged.GED]int, len(sigma))
	for i, d := range sigma {
		idx[d] = i
	}
	out := ""
	for _, v := range vs {
		out += fmt.Sprintf("g%d[", idx[v.GED])
		for _, x := range v.GED.Pattern.Vars() {
			out += fmt.Sprintf("%s=%d;", x, v.Match[x])
		}
		out += fmt.Sprintf("]%v\n", v.Literal)
	}
	return out
}

func oracle(t *testing.T, snap *graph.Snapshot, sigma ged.Set) string {
	t.Helper()
	vs, err := reason.NewValidatorOn(snap, sigma).RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	reason.SortViolations(vs, sigma)
	return renderViolations(vs, sigma)
}

func partitioners() []Partitioner {
	return []Partitioner{NewHash(), NewGreedy()}
}

// mutate applies a few random add-only ops to g and returns when done.
func mutate(rng *rand.Rand, g *graph.Graph) {
	ops := 1 + rng.Intn(8)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0:
			g.AddNode(testLabels[rng.Intn(len(testLabels))])
		case 1:
			n := g.NumNodes()
			g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
		case 2:
			n := g.NumNodes()
			g.AddEdge(graph.NodeID(rng.Intn(n)), "likes", graph.NodeID(rng.Intn(n)))
		default:
			n := g.NumNodes()
			g.SetAttr(graph.NodeID(rng.Intn(n)),
				testAttrs[rng.Intn(len(testAttrs))], graph.Int(rng.Intn(3)))
		}
	}
}

// TestShardDifferentialValidate: one-shot sharded validation must equal
// the monolithic validator byte for byte, across random graphs, rule
// sets, shard counts and partitioners.
func TestShardDifferentialValidate(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		seed := int64(1000 + trial)
		g := gen.RandomPropertyGraph(seed, 40+trial*17, 2.5, testLabels, testAttrs, 3)
		sigma := gen.RandomGEDSet(seed+1, 4, 3, testLabels, testAttrs, 3)
		snap := g.Freeze()
		want := oracle(t, snap, sigma)
		for _, p := range []int{1, 2, 3, 4} {
			for _, part := range partitioners() {
				st := New(g, snap, p, part)
				vs, err := st.Validate(ctx, sigma)
				if err != nil {
					t.Fatalf("trial %d p=%d %s: %v", trial, p, part.Name(), err)
				}
				if got := renderViolations(vs, sigma); got != want {
					t.Fatalf("trial %d p=%d %s: sharded validate diverged\n got:\n%s\nwant:\n%s",
						trial, p, part.Name(), got, want)
				}
			}
		}
	}
}

// TestShardDifferentialApply: the maintained per-shard stores must
// track random delta sequences and stay byte-identical to a full
// monolithic re-validation after every delta.
func TestShardDifferentialApply(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		seed := int64(2000 + trial)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomPropertyGraph(seed, 40+trial*13, 2.0, testLabels, testAttrs, 3)
		sigma := gen.RandomGEDSet(seed+1, 3, 3, testLabels, testAttrs, 3)
		for _, part := range partitioners() {
			gw := g.Clone()
			st := New(gw, gw.Freeze(), 1+trial%4, part)
			if err := st.SeedStores(ctx, sigma); err != nil {
				t.Fatalf("seed: %v", err)
			}
			for step := 0; step < 6; step++ {
				mutate(rng, gw)
				d := gw.DeltaSince(st.Version())
				if d == nil {
					t.Fatalf("journal trimmed unexpectedly")
				}
				if err := st.ApplyDelta(ctx, d); err != nil {
					t.Fatalf("apply: %v", err)
				}
				want := oracle(t, st.Global(), sigma)
				got := renderViolations(st.Violations(), sigma)
				if got != want {
					t.Fatalf("trial %d %s step %d: maintained set diverged\n got:\n%s\nwant:\n%s",
						trial, part.Name(), step, got, want)
				}
			}
		}
	}
}

// TestShardConcurrentStates: independent sharded states on independent
// graphs must apply deltas concurrently race-clean (the engine runs one
// state per graph under its per-graph lock; cross-graph concurrency is
// the supported parallelism).
func TestShardConcurrentStates(t *testing.T) {
	ctx := context.Background()
	sigma := gen.RandomGEDSet(7, 3, 3, testLabels, testAttrs, 3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + i)))
			g := gen.RandomPropertyGraph(int64(i), 60, 2.0, testLabels, testAttrs, 3)
			st := New(g, g.Freeze(), 4, NewGreedy())
			if err := st.SeedStores(ctx, sigma); err != nil {
				t.Errorf("seed: %v", err)
				return
			}
			for step := 0; step < 5; step++ {
				mutate(rng, g)
				d := g.DeltaSince(st.Version())
				if err := st.ApplyDelta(ctx, d); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				st.Violations()
			}
		}(i)
	}
	wg.Wait()
}

// TestPartitioners: both strategies must produce a valid, deterministic
// assignment, and greedy must beat hash on a community-structured
// graph's cut.
func TestPartitioners(t *testing.T) {
	g := graph.New()
	const communities, size = 4, 30
	for c := 0; c < communities; c++ {
		for i := 0; i < size; i++ {
			g.AddNode("person")
		}
	}
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < communities; c++ {
		base := graph.NodeID(c * size)
		for i := 0; i < size*4; i++ {
			g.AddEdge(base+graph.NodeID(rng.Intn(size)), "knows", base+graph.NodeID(rng.Intn(size)))
		}
	}
	for i := 0; i < 10; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(size)), "follows",
			graph.NodeID(size+rng.Intn(size)))
	}
	cut := func(part Partitioner, p int) int {
		owner := part.Partition(g, p)
		if len(owner) != g.NumNodes() {
			t.Fatalf("%s: owner table covers %d of %d nodes", part.Name(), len(owner), g.NumNodes())
		}
		again := part.Partition(g, p)
		edges := 0
		for i := range owner {
			if owner[i] < 0 || int(owner[i]) >= p {
				t.Fatalf("%s: node %d assigned to shard %d of %d", part.Name(), i, owner[i], p)
			}
			if owner[i] != again[i] {
				t.Fatalf("%s: nondeterministic assignment of node %d", part.Name(), i)
			}
		}
		for _, e := range g.Edges() {
			if owner[e.Src] != owner[e.Dst] {
				edges++
			}
		}
		return edges
	}
	hashCut := cut(NewHash(), communities)
	greedyCut := cut(NewGreedy(), communities)
	if greedyCut >= hashCut {
		t.Fatalf("greedy cut %d not below hash cut %d on community graph", greedyCut, hashCut)
	}
}

// BenchmarkShardValidate measures the steady-state sharded full
// validation on the power-law social workload, for overhead comparison
// against BenchmarkMonoValidate.
func BenchmarkShardValidate(b *testing.B) {
	ctx := context.Background()
	g, _ := gen.PowerLawSocial(17, 8, 250, 6, 0.2)
	sigma := gen.PartitionFriendlyRules()
	st := New(g, g.Freeze(), 2, NewGreedy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Validate(ctx, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonoValidate is the monolithic baseline on the same
// workload.
func BenchmarkMonoValidate(b *testing.B) {
	ctx := context.Background()
	g, _ := gen.PowerLawSocial(17, 8, 250, 6, 0.2)
	sigma := gen.PartitionFriendlyRules()
	snap := g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reason.NewValidatorOn(snap, sigma).RunCtx(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShardBoundaryIndex pins the boundary-index bookkeeping: cut
// edges counted once (idempotent duplicates ignored) and frontier
// attribute state adopted so later writes keep replicating.
func TestShardBoundaryIndex(t *testing.T) {
	ctx := context.Background()
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("person")
	g.SetAttr(b, "a", graph.Int(1))
	snap := g.Freeze()
	// Hash owners for ids 0 and 1 under p=2 may or may not collide;
	// force a known split with a partitioner stub via Greedy on a
	// disconnected pair — instead, just use hash and read ownership.
	st := New(g, snap, 2, NewHash())
	so, do := st.sh.owner[a], st.sh.owner[b]
	g.AddEdge(a, "e", b)
	g.AddEdge(a, "e", b) // duplicate: must not double-count
	if err := st.ApplyDelta(ctx, g.DeltaSince(st.Version())); err != nil {
		t.Fatal(err)
	}
	wantCut := 0
	if so != do {
		wantCut = 1
	}
	if st.CutEdges() != wantCut {
		t.Fatalf("cut edges = %d, want %d (owners %d,%d)", st.CutEdges(), wantCut, so, do)
	}
	if so != do {
		// b is now frontier of a's shard: its attrs must be visible
		// there and follow later writes.
		if !st.sh.known[so][b] {
			t.Fatalf("frontier node not adopted")
		}
		if v, ok := st.sh.graphs[so].Attr(b, "a"); !ok || !v.Equal(graph.Int(1)) {
			t.Fatalf("adopted frontier attrs missing: %v %v", v, ok)
		}
		g.SetAttr(b, "a", graph.Int(2))
		if err := st.ApplyDelta(ctx, g.DeltaSince(st.Version())); err != nil {
			t.Fatal(err)
		}
		if v, ok := st.sh.graphs[so].Attr(b, "a"); !ok || !v.Equal(graph.Int(2)) {
			t.Fatalf("frontier attr write not routed: %v %v", v, ok)
		}
	}
}

// TestWorkerPanicContained: a panic inside a validation worker must
// surface as an error from run — not kill the process, and not strand
// the other workers in cond.Wait with undrained frames.
func TestWorkerPanicContained(t *testing.T) {
	g := gen.RandomPropertyGraph(42, 200, 2.5, testLabels, testAttrs, 3)
	sigma := gen.RandomGEDSet(43, 4, 3, testLabels, testAttrs, 3)
	st := New(g, g.Freeze(), 4, NewHash())
	r := newRunner(st.sh, st.global, st.compiled(sigma))
	r.seedFull()
	// A frame with an out-of-range rule index panics the worker that
	// pops it, mid-search, while the other workers still hold work.
	r.seed(0, frame{rule: 9999})
	done := make(chan error, 1)
	go func() { done <- r.run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run returned nil after a worker panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run deadlocked after a worker panic")
	}
}
