package pattern_test

// Differential tests for the matcher against the brute-force oracle
// (oracle_test.go): matching over a frozen graph.Snapshot must return
// exactly the homomorphisms the oracle enumerates on the graph it was
// frozen from, across generated workloads (testing/quick drives the
// seeds). An external test package is used so the workload generators
// of internal/gen can be imported without a cycle.

import (
	"testing"
	"testing/quick"

	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

var (
	diffLabels = []graph.Label{"a", "b", "c"}
	diffAttrs  = []graph.Attr{"p", "q"}
)

// workloadFor derives a deterministic random host graph and rule set
// from one seed.
func workloadFor(seed int64) (*graph.Graph, []*pattern.Pattern) {
	g := gen.RandomPropertyGraph(seed, 30, 2.5, diffLabels, diffAttrs, 3)
	sigma := gen.RandomGEDSet(seed+1, 6, 4, diffLabels, diffAttrs, 3)
	ps := make([]*pattern.Pattern, 0, len(sigma)+2)
	for _, d := range sigma {
		ps = append(ps, d.Pattern)
	}
	// A wildcard-heavy pattern, a path closed by a wildcard edge (a
	// residual check on an intersected candidate) and the empty pattern
	// ride along: all exercise matcher paths the GED generator rarely
	// produces.
	wild := pattern.New()
	wild.AddVar("x", graph.Wildcard)
	wild.AddEdge("x", graph.Wildcard, "y")
	closed := pattern.New()
	closed.AddEdge("x", "e", "y").AddEdge("y", "e", "z").AddEdge("x", graph.Wildcard, "z")
	ps = append(ps, wild, closed, pattern.New())
	return g, ps
}

// TestSnapshotMatchingDifferential: for quick-generated seeds, every
// pattern finds exactly the oracle's match set on the snapshot, through
// both the Match-map and the dense enumeration.
func TestSnapshotMatchingDifferential(t *testing.T) {
	f := func(seed int64) bool {
		g, ps := workloadFor(seed % 1_000_000)
		snap := g.Freeze()
		for _, p := range ps {
			want := canonMatches(p, bruteForce(p, g, nil))
			var onMap []pattern.Match
			pattern.ForEachMatch(p, snap, func(m pattern.Match) bool {
				onMap = append(onMap, m.Clone())
				return true
			})
			onDense := denseMatches(p, func(yield func([]graph.NodeID) bool) {
				pattern.Compile(p, snap).ForEachDenseCancel(snap, nil, nil, yield)
			})
			for _, got := range [][]pattern.Match{onMap, onDense} {
				if got := canonMatches(p, got); !sameCanon(want, got) {
					t.Logf("seed %d: pattern %s: oracle %d matches, snapshot %d",
						seed, p, len(want), len(got))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPivotDifferential: the pivot-block primitive enumerates,
// candidate by candidate, exactly the oracle's matches binding the
// pivot to that candidate.
func TestSnapshotPivotDifferential(t *testing.T) {
	f := func(seed int64) bool {
		g, ps := workloadFor(seed % 1_000_000)
		snap := g.Freeze()
		for _, p := range ps {
			if p.NumVars() == 0 {
				continue
			}
			pivot := p.Vars()[0]
			cands := g.CandidateNodes(p.Label(pivot))
			want := bruteForcePivot(p, g, nil, pivot, cands)
			got := denseMatches(p, func(yield func([]graph.NodeID) bool) {
				pattern.Compile(p, snap).ForEachDensePivotCancel(snap, pivot, cands, nil, nil, yield)
			})
			if !sameCanon(canonMatches(p, want), canonMatches(p, got)) {
				t.Logf("seed %d: pattern %s pivot %s: oracle %d matches, snapshot %d",
					seed, p, pivot, len(want), len(got))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPatternYieldContract: the empty pattern delivers its single
// empty match through the regular search, so the "return false to stop"
// contract holds, and a pivot (which necessarily names an unknown
// variable) yields nothing.
func TestEmptyPatternYieldContract(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	snap := g.Freeze()
	calls := 0
	pattern.ForEachMatch(pattern.New(), snap, func(m pattern.Match) bool {
		calls++
		if len(m) != 0 {
			t.Errorf("empty pattern yielded non-empty match %v", m)
		}
		return false // must be honored: no further yields
	})
	if calls != 1 {
		t.Errorf("empty pattern yielded %d times, want 1", calls)
	}
	pattern.Compile(pattern.New(), snap).ForEachDensePivotCancel(snap, "zzz", snap.Nodes(), nil, nil, func([]graph.NodeID) bool {
		t.Error("pivot on an unknown variable yielded a match on the empty pattern")
		return true
	})
}
