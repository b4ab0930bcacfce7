package gedlib_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gedlib"
	"gedlib/workload"
)

// mutateKB applies a few random knowledge-base updates to g.
func mutateKB(rng *rand.Rand, g *gedlib.Graph) {
	for k := 0; k < 1+rng.Intn(3); k++ {
		id := gedlib.NodeID(rng.Intn(g.NumNodes()))
		switch rng.Intn(4) {
		case 0:
			g.SetAttr(id, "type", gedlib.String("psychologist"))
		case 1:
			g.SetAttr(id, "type", gedlib.String("programmer"))
		case 2:
			g.AddNode("person")
		default:
			g.AddEdge(id, "create", gedlib.NodeID(rng.Intn(g.NumNodes())))
		}
	}
}

// canonicalValidate is a fresh validation of sigma over g in the
// canonical order Apply reports: the touched search over every node.
func canonicalValidate(ctx context.Context, g *gedlib.Graph, sigma gedlib.RuleSet) ([]gedlib.Violation, error) {
	snap := g.Freeze()
	return gedlib.NewSnapshotValidator(snap, sigma).TouchingCtx(ctx, snap.Nodes(), 0)
}

// TestSessionApplyMatchesValidate: a session fed explicit deltas — cut
// from a twin graph the session never saw — maintains exactly the
// violations, in order and with the same failing literals, that a fresh
// validator finds on the twin; and a SetRules that fails on a cancelled
// context leaves the old rules and set in place.
func TestSessionApplyMatchesValidate(t *testing.T) {
	t.Run("shards=1", sessionApplyMatchesValidate)
}

// The session tests run their body as a "shards=1" subtest: one shard is
// the whole graph, and the name stays the one the case has always had.
func sessionApplyMatchesValidate(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	rng := rand.New(rand.NewSource(43))
	g, _ := workload.KnowledgeBase(31, 30, 0.1)
	twin, _ := workload.KnowledgeBase(31, 30, 0.1)
	s, err := gedlib.New().Open(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	var got []gedlib.Violation
	for step := 0; step < 20; step++ {
		d := twin.DeltaSince(s.Snapshot().SourceVersion())
		if got, err = s.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
		want, err := canonicalValidate(ctx, twin, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if orderedCanon(got) != orderedCanon(want) {
			t.Fatalf("step %d: session diverged\n got:\n%s\nwant:\n%s", step, orderedCanon(got), orderedCanon(want))
		}
		mutateKB(rng, twin)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	// Cancelled before the call, and cancelled once the re-seed
	// under the new rules is under way.
	for _, c := range []context.Context{cctx, newCancelAfter(1)} {
		if err := s.SetRules(c, gedlib.RuleSet{workload.PaperPhi1()}); !errors.Is(err, context.Canceled) {
			t.Fatalf("SetRules on a cancelled context: %v", err)
		}
		// Returning a seeded set does no work that could notice
		// cancellation, so Violations succeeding on cctx proves the
		// old set survived rather than being re-seeded.
		kept, err := s.Violations(cctx)
		if err != nil {
			t.Fatalf("the maintained set did not survive a failed SetRules: %v", err)
		}
		full, err := s.Validate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if orderedCanon(kept) != orderedCanon(got) || fmt.Sprint(canon(full)) != fmt.Sprint(canon(got)) {
			t.Fatalf("failed SetRules changed the session: %d maintained, %d validated, want %d",
				len(kept), len(full), len(got))
		}
	}
}

// cancelAfter is a context whose Err turns context.Canceled after n
// calls: a cancellation that lands deterministically past an up-front
// check, inside the work that follows it.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSessionShimMixedRules: graph-keyed calls with two rule sets,
// running concurrently on one unchanged graph (under -race in CI), each
// get their own rules' answer, and read-only calls leave the set Apply
// maintains alone.
func TestSessionShimMixedRules(t *testing.T) {
	t.Run("shards=1", sessionShimMixedRules)
}

func sessionShimMixedRules(t *testing.T) {
	ctx := context.Background()
	a := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi4()}
	b := gedlib.RuleSet{workload.PaperPhi2(), workload.PaperPhi3()}
	g, _ := workload.KnowledgeBase(23, 30, 0.3)
	snap := g.Freeze()
	want := map[int][]gedlib.Violation{}
	for i, sigma := range []gedlib.RuleSet{a, b} {
		vs, err := gedlib.NewSnapshotValidator(snap, sigma).RunParallelCtx(ctx, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = vs
	}
	if len(want[0]) == 0 || len(want[1]) == 0 {
		t.Fatalf("workload too clean: %d and %d violations", len(want[0]), len(want[1]))
	}
	eng := gedlib.New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (w + i) % 2
				sigma := []gedlib.RuleSet{a, b}[k]
				var got []gedlib.Violation
				var err error
				switch (w + i) % 4 {
				case 0, 1:
					got, err = eng.Validate(ctx, g, sigma)
				case 2:
					got, err = eng.Apply(ctx, g, sigma)
				default:
					var ok bool
					ok, err = eng.Satisfies(ctx, g, sigma)
					if err == nil && ok {
						t.Errorf("Satisfies(Σ%d) = true on a dirty graph", k)
					}
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(canon(got)) != fmt.Sprint(canon(want[k])) {
					t.Errorf("worker %d call %d: Σ%d got %d violations, want %d", w, i, k, len(got), len(want[k]))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Apply maintains a's set; validating b in between neither
	// re-seeds nor replaces it.
	if _, err := eng.Apply(ctx, g, a); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Validate(ctx, g, b); err != nil {
		t.Fatal(err)
	}
	g.SetAttr(gedlib.NodeID(0), "type", gedlib.String("programmer"))
	got, err := eng.Apply(ctx, g, a)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := canonicalValidate(ctx, g, a)
	if err != nil {
		t.Fatal(err)
	}
	if orderedCanon(got) != orderedCanon(fresh) {
		t.Fatalf("maintained set diverged after a mixed-rules read:\n got:\n%s\nwant:\n%s", orderedCanon(got), orderedCanon(fresh))
	}
}

// TestSessionCatchUp: the graph-keyed shim catches its session up by a
// small backlog within the snapshot lineage and re-freezes on one over a
// quarter of the graph; either way Engine.Apply maintains the set a
// fresh validation finds.
func TestSessionCatchUp(t *testing.T) {
	t.Run("shards=1", sessionCatchUp)
}

func sessionCatchUp(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi4()}
	g, _ := workload.KnowledgeBase(13, 30, 0.2)
	o := gedlib.NewObserver(nil)
	eng := gedlib.New(gedlib.WithObserver(o))
	freezes := func() uint64 {
		return o.Registry().Counter("ged_engine_snapshot_cache_total", "", "outcome", "freeze").Value()
	}
	if _, err := eng.Apply(ctx, g, sigma); err != nil {
		t.Fatal(err)
	}
	check := func(step string, sameLineage bool) {
		t.Helper()
		before := freezes()
		got, err := eng.Apply(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		want, err := canonicalValidate(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if orderedCanon(got) != orderedCanon(want) {
			t.Fatalf("%s: session diverged\n got:\n%s\nwant:\n%s", step, orderedCanon(got), orderedCanon(want))
		}
		if (freezes() == before) != sameLineage {
			t.Fatalf("%s: lineage kept = %v, want %v", step, !sameLineage, sameLineage)
		}
	}
	g.SetAttr(gedlib.NodeID(1), "type", gedlib.String("programmer"))
	check("small backlog", true)
	for i, n := 0, g.Size()/2+1; i < n; i++ {
		id := g.AddNode("person")
		g.AddEdge(id, "create", gedlib.NodeID(i%5))
	}
	check("large backlog", false)
	g.SetAttr(gedlib.NodeID(2), "type", gedlib.String("psychologist"))
	check("after the re-freeze", true)
}

// TestSessionConcurrentReaders: Validate, Snapshot and Validator run
// against a session while Apply advances it (run under -race), and the
// published validator never leaves the session's lineage.
func TestSessionConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi4()}
	g, _ := workload.KnowledgeBase(11, 30, 0.2)
	s, err := gedlib.New().Open(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Validate(ctx); err != nil {
					t.Error(err)
					return
				}
				if val := s.Validator(); val.Snapshot().Lineage() != s.Snapshot().Lineage() {
					t.Error("validator left the session's lineage")
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 30; step++ {
		mutateKB(rng, g)
		if _, err := s.Apply(ctx, g.DeltaSince(s.Snapshot().SourceVersion())); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestSessionSnapshot: a session's snapshot moves only by the deltas it
// is handed, within one lineage, and its validator follows it.
func TestSessionSnapshot(t *testing.T) {
	ctx := context.Background()
	g, _ := workload.KnowledgeBase(3, 20, 0.1)
	s, err := gedlib.New().Open(ctx, g, gedlib.RuleSet{workload.PaperPhi1()})
	if err != nil {
		t.Fatal(err)
	}
	s1 := s.Snapshot()
	if got, want := s1.SourceVersion(), g.Version(); got != want {
		t.Fatalf("snapshot at version %d, graph at %d", got, want)
	}
	if _, err := s.Apply(ctx, g.DeltaSince(s1.SourceVersion())); err != nil || s.Snapshot() != s1 {
		t.Fatalf("an empty delta moved the snapshot (err %v)", err)
	}
	if _, err := s.Apply(ctx, nil); !errors.Is(err, gedlib.ErrNoDelta) || s.Snapshot() != s1 {
		t.Fatalf("a nil delta: err %v, want ErrNoDelta and the snapshot kept", err)
	}
	g.SetAttr(gedlib.NodeID(0), "name", gedlib.String("moved"))
	if s.Snapshot() != s1 {
		t.Fatal("the snapshot followed the graph without a delta")
	}
	if _, err := s.Apply(ctx, g.DeltaSince(s1.SourceVersion())); err != nil {
		t.Fatal(err)
	}
	s3 := s.Snapshot()
	if s3 == s1 || s3.SourceVersion() != g.Version() || s3.Lineage() != s1.Lineage() {
		t.Fatal("snapshot did not advance by the delta within its lineage")
	}
	if s.Validator().Snapshot() != s3 {
		t.Fatal("validator is not bound to the session snapshot")
	}
}

// TestSessionApplyPastJournal: a burst of writes longer than the graph's
// journal keeps leaves DeltaSince nil for the session snapshot. Apply
// refuses that nil with ErrNoDelta instead of returning the pre-burst
// set as current, and the graph-keyed Engine.Apply, handed the graph,
// re-freezes to the post-burst set. The burst is shorter than |G| + 2048 ops, the
// journal's floor before it was tied to the session's catch-up bound.
func TestSessionApplyPastJournal(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi4()}
	g, _ := workload.KnowledgeBase(13, 2000, 0.2)
	eng := gedlib.New()
	s, err := eng.Open(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := s.Violations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	burst := 8192 + g.Size()/2 + 1 // past the most the journal ever holds
	if burst >= g.Size()+2048 {
		t.Fatalf("a %d-op burst on a size-%d graph is outside the window under test", burst, g.Size())
	}
	rng := rand.New(rand.NewSource(3))
	types := []gedlib.Value{gedlib.String("psychologist"), gedlib.String("programmer")}
	for i := 0; i < burst; i++ {
		g.SetAttr(gedlib.NodeID(rng.Intn(g.NumNodes())), "type", types[rng.Intn(2)])
	}
	d := g.DeltaSince(snap.SourceVersion())
	if d != nil {
		t.Fatalf("the journal still reaches back %d ops on a size-%d graph", burst, g.Size())
	}
	if vs, err := s.Apply(ctx, d); !errors.Is(err, gedlib.ErrNoDelta) || vs != nil || s.Snapshot() != snap {
		t.Fatalf("Apply of the trimmed history: %d violations, err %v; want ErrNoDelta and the snapshot kept", len(vs), err)
	}
	want, err := canonicalValidate(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) == fmt.Sprint(pre) {
		t.Fatal("the burst left the violation set as it was; it cannot tell a stale set from a current one")
	}
	got, err := eng.Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Engine.Apply after the burst: %d violations, want %d", len(got), len(want))
	}
}

// TestSessionSnapshotCounters: the snapshot outcome counters say what
// happened — Open freezes, Apply advances, and the shim's catch-up on an
// unchanged graph hits.
func TestSessionSnapshotCounters(t *testing.T) {
	ctx := context.Background()
	o := gedlib.NewObserver(nil)
	eng := gedlib.New(gedlib.WithObserver(o))
	count := func(outcome string) uint64 {
		return o.Registry().Counter("ged_engine_snapshot_cache_total", "", "outcome", outcome).Value()
	}
	rng := rand.New(rand.NewSource(5))
	g, _ := workload.KnowledgeBase(7, 30, 0.2)
	sigma := gedlib.RuleSet{workload.PaperPhi1(), workload.PaperPhi4()}
	const steps = 12
	for i := 0; i < steps; i++ {
		if _, err := eng.Apply(ctx, g, sigma); err != nil {
			t.Fatal(err)
		}
		mutateKB(rng, g)
	}
	if _, err := eng.Apply(ctx, g, sigma); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Validate(ctx, g, sigma); err != nil {
		t.Fatal(err)
	}
	if f, a, h := count("freeze"), count("advance"), count("hit"); f != 1 || a != steps || h != 1 {
		t.Fatalf("freeze/advance/hit = %d/%d/%d, want 1/%d/1", f, a, h, steps)
	}

	s, err := eng.Open(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	mutateKB(rng, g)
	if _, err := s.Apply(ctx, g.DeltaSince(s.Snapshot().SourceVersion())); err != nil {
		t.Fatal(err)
	}
	if f, a := count("freeze"), count("advance"); f != 2 || a != steps+1 {
		t.Fatalf("after Open + Apply: freeze/advance = %d/%d, want 2/%d", f, a, steps+1)
	}
}

// TestShimSessionsCollected: the graph-keyed shim holds its sessions
// weakly — once the graphs are garbage, so are their sessions.
func TestShimSessionsCollected(t *testing.T) {
	ctx := context.Background()
	eng := gedlib.New()
	sigma := gedlib.RuleSet{workload.PaperPhi1()}
	graphs := make([]*gedlib.Graph, 8)
	for i := range graphs {
		graphs[i], _ = workload.KnowledgeBase(int64(i), 20, 0.2)
		if _, err := eng.Validate(ctx, graphs[i], sigma); err != nil {
			t.Fatal(err)
		}
	}
	if n := gedlib.SessionCount(eng); n != len(graphs) {
		t.Fatalf("%d sessions for %d graphs", n, len(graphs))
	}
	runtime.KeepAlive(graphs)
	deadline := time.Now().Add(5 * time.Second)
	for gedlib.SessionCount(eng) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions outlived their graphs", gedlib.SessionCount(eng))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestViolationIsThreeWords: a violation holds its rule, match and
// failing literal by reference, so a copy of a violation set copies
// three words per violation and no literal.
func TestViolationIsThreeWords(t *testing.T) {
	if got, want := unsafe.Sizeof(gedlib.Violation{}), 3*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("Violation is %d bytes, want %d", got, want)
	}
}

// TestSessionApplySharesViolations: an empty-delta Apply hands back the
// maintained set without copying it, so its allocation does not grow
// with the graph (and with it the set); with a limit it returns a prefix
// whose capacity is clamped, so an append cannot write into the set.
func TestSessionApplySharesViolations(t *testing.T) {
	ctx := context.Background()
	sigma, err := gedlib.ParseRules(`ged r on (x:person) { then x.ok = 1 }`)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerApply := func(n int, opts ...gedlib.Option) (float64, []gedlib.Violation) {
		g := gedlib.NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode("person") // every node violates r
		}
		s, err := gedlib.New(opts...).Open(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := s.Apply(ctx, g.DeltaSince(g.Version()))
		if err != nil {
			t.Fatal(err)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := s.Apply(ctx, g.DeltaSince(g.Version())); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, vs
	}
	small, vs := bytesPerApply(1_000)
	large, _ := bytesPerApply(20_000)
	if len(vs) != 1_000 {
		t.Fatalf("%d violations, want 1000", len(vs))
	}
	if large > small+1024 {
		t.Fatalf("an empty-delta Apply allocates %.0f B at 1k nodes but %.0f B at 20k", small, large)
	}
	t.Logf("bytes per empty-delta Apply: %.0f at 1k nodes, %.0f at 20k", small, large)

	_, limited := bytesPerApply(1_000, gedlib.WithViolationLimit(10))
	if len(limited) != 10 || cap(limited) != 10 {
		t.Fatalf("limited set has len %d cap %d, want 10 and 10", len(limited), cap(limited))
	}
}
