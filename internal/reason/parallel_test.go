package reason

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// canonViolations renders a violation list canonically for comparison.
func canonViolations(vs []Violation, sigma ged.Set) []string {
	idx := make(map[*ged.GED]int)
	for i, d := range sigma {
		idx[d] = i
	}
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		s := fmt.Sprintf("g%d:", idx[v.GED])
		vars := v.GED.Pattern.Vars()
		for _, x := range vars {
			s += fmt.Sprintf("%s=%d;", x, v.Match[x])
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSequential: the parallel validator reports exactly
// the sequential one's violations, in its order, for every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		want := validate(g, sigma, 0)
		for _, workers := range []int{1, 2, 4, 8} {
			got := validateParallel(g, sigma, 0, workers)
			if !sameViolations(t, fmt.Sprintf("trial %d workers %d", trial, workers), got, want, sigma) {
				t.FailNow()
			}
		}
	}
}

// TestParallelDeterministicOrder: repeated parallel runs return
// violations in the same order.
func TestParallelDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sigma := randomSigma(rng)
	g := randomGraph(rng)
	first := validateParallel(g, sigma, 0, 4)
	for i := 0; i < 5; i++ {
		again := validateParallel(g, sigma, 0, 4)
		if len(again) != len(first) {
			t.Fatal("violation count changed between runs")
		}
		for j := range again {
			if again[j].GED != first[j].GED || fmt.Sprint(again[j].Match) != fmt.Sprint(first[j].Match) {
				t.Fatal("violation order changed between runs")
			}
		}
	}
}

// TestParallelTalliesEqualSequential: the morsels of a parallel scan
// together examine exactly the candidates, intersection steps, probes,
// bindings and pruned partial bindings of the sequential scan — cutting
// the plan adds no work — and report its violations in its order.
func TestParallelTalliesEqualSequential(t *testing.T) {
	ctx := context.Background()
	counters := []string{"ged_match_candidates_total", "ged_match_intersect_steps_total",
		"ged_match_probe_steps_total", "ged_match_bindings_total", "ged_match_pruned_total"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, sigma := denseGraph(rng), prunedSigma(rng)
		if seed%3 == 0 {
			g, _ = gen.KnowledgeBase(seed, 60, 0.2)
			sigma = ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
		}
		snap := g.Freeze()
		run := func(workers int) ([]Violation, []uint64) {
			reg := obs.NewRegistry()
			val := NewValidatorOn(snap, sigma)
			val.Observe(reg)
			vs, err := val.RunParallelCtx(ctx, 0, workers)
			if err != nil {
				t.Fatal(err)
			}
			var tally []uint64
			for i, d := range sigma {
				for _, c := range counters {
					tally = append(tally, reg.Counter(c, "", "rule", ruleName(d.Name, i)).Value())
				}
			}
			return vs, tally
		}
		want, wantTally := run(1)
		for workers := 2; workers <= 4; workers++ {
			got, gotTally := run(workers)
			if !sameViolations(t, fmt.Sprintf("seed %d workers %d", seed, workers), got, want, sigma) ||
				!slices.Equal(gotTally, wantTally) {
				t.Logf("seed %d workers %d: tallies %v, sequential %v", seed, workers, gotTally, wantTally)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(1901, 150)); err != nil {
		t.Error(err)
	}
}

func TestParallelLimit(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p")
	phi := ged.New("f", q, nil, []ged.Literal{ged.ConstLit("x", "k", graph.Int(1))})
	g := randomGraph(rand.New(rand.NewSource(1)))
	for i := 0; i < 30; i++ {
		g.AddNode("p")
	}
	vs := validateParallel(g, ged.Set{phi}, 5, 4)
	if len(vs) != 5 {
		t.Errorf("limit 5: got %d", len(vs))
	}
	if !sameViolations(t, "limit 5", vs, validate(g, ged.Set{phi}, 5), ged.Set{phi}) {
		t.Error("the limit keeps a different prefix than the sequential scan's")
	}
}

func TestParallelEmptyPattern(t *testing.T) {
	phi := ged.New("e", pattern.New(), nil, nil)
	g := randomGraph(rand.New(rand.NewSource(2)))
	if n := len(validateParallel(g, ged.Set{phi}, 0, 4)); n != 0 {
		t.Errorf("empty consequent can never be violated, got %d", n)
	}
}

// TestPivotBlocksPartitionMatches covers the pivot primitive the
// touched search runs on: single-candidate blocks
// over the pivot's candidates together enumerate every match exactly
// once, label-violating candidates yield nothing, and so does a pivot
// the pattern does not have.
func TestPivotBlocksPartitionMatches(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)))
	g.AddNode("a")
	g.AddNode("b")
	snap := g.Freeze()
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b")
	pl := pattern.Compile(q, snap)
	count := func(pivot pattern.Var, cands []graph.NodeID) int {
		n := 0
		pl.ForEachDensePivotCancel(pivot, cands, nil, nil, func([]graph.NodeID) bool {
			n++
			return true
		})
		return n
	}
	total := 0
	pattern.ForEachMatch(q, snap, func(pattern.Match) bool {
		total++
		return true
	})
	sum := 0
	for _, c := range snap.CandidateNodes("a") {
		sum += count("x", []graph.NodeID{c})
	}
	if sum != total || total == 0 {
		t.Errorf("partitioned count %d != total %d", sum, total)
	}
	if n := count("x", snap.CandidateNodes("b")); n != 0 {
		t.Errorf("label-violating pivot candidates produced %d matches", n)
	}
	if n := count("zzz", snap.Nodes()); n != 0 {
		t.Error("unknown pivot variable must yield no matches")
	}
}

// TestValidatorSharedScratch: searches that run at once on one validator
// — full scans, parallel scans, touched searches and store seeding —
// each draw their own hit scratch from the pool and copy out what they
// keep, so every call reports what it reports alone. Run under -race.
func TestValidatorSharedScratch(t *testing.T) {
	ctx := context.Background()
	g, sigma := pushdownWorkload(5)
	val := NewValidatorOn(g.Freeze(), sigma)
	touched := []graph.NodeID{0, 3, 7, 11, 19}
	calls := []func() ([]Violation, error){
		func() ([]Violation, error) { return val.RunCtx(ctx, 0) },
		func() ([]Violation, error) { return val.RunParallelCtx(ctx, 0, 3) },
		func() ([]Violation, error) { return val.TouchingCtx(ctx, touched, 0) },
		func() ([]Violation, error) {
			st, err := NewViolationStoreParallelCtx(ctx, val, 2)
			if err != nil {
				return nil, err
			}
			return st.Violations(), nil
		},
	}
	want := make([]string, len(calls))
	for i, call := range calls {
		vs, err := call()
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			t.Fatalf("call %d finds no violation: the test is vacuous", i)
		}
		want[i] = violationBytes(vs, sigma)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (w + i) % len(calls)
				vs, err := calls[k]()
				if err != nil {
					t.Error(err)
					return
				}
				if got := violationBytes(vs, sigma); got != want[k] {
					t.Errorf("worker %d call %d reports\n%swant\n%s", w, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
