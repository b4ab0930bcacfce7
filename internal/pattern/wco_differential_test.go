package pattern_test

// Differential tests for the worst-case-optimal extension step: the
// intersection path (multi-way sorted-run intersection with pushed-down
// literal postings) must enumerate exactly the matches of the
// brute-force oracle (oracle_test.go) across generated cyclic workloads
// — triangles, diamonds, 4-cliques, wildcard edges and self-loops, the
// shapes where candidate intersection and residual checks interact the
// most. testing/quick drives the seeds; CI runs them under -race twice
// over, which also guards the pooled intersection scratch.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

var (
	wcoLabels = []graph.Label{"a", "b", "c"}
	wcoAttrs  = []graph.Attr{"p", "q"}
)

// cyclicPatterns builds the dense shapes from one seed: a triangle, a
// diamond, a 4-clique, plus variants with wildcard labels and a
// self-loop, each over labels drawn from the workload vocabulary.
func cyclicPatterns(seed int64) []*pattern.Pattern {
	rng := rand.New(rand.NewSource(seed))
	lbl := func() graph.Label {
		if rng.Intn(4) == 0 {
			return graph.Wildcard
		}
		return wcoLabels[rng.Intn(len(wcoLabels))]
	}
	elbl := func() graph.Label {
		if rng.Intn(4) == 0 {
			return graph.Wildcard
		}
		return "e"
	}
	var ps []*pattern.Pattern

	tri := pattern.New()
	tri.AddVar("x", lbl()).AddVar("y", lbl()).AddVar("z", lbl())
	tri.AddEdge("x", elbl(), "y").AddEdge("y", elbl(), "z").AddEdge("x", elbl(), "z")
	ps = append(ps, tri)

	dia := pattern.New()
	dia.AddVar("x", lbl()).AddVar("y", lbl()).AddVar("z", lbl()).AddVar("w", lbl())
	dia.AddEdge("x", elbl(), "y").AddEdge("x", elbl(), "z")
	dia.AddEdge("y", elbl(), "w").AddEdge("z", elbl(), "w")
	ps = append(ps, dia)

	clique := pattern.New()
	vars := []pattern.Var{"x", "y", "z", "w"}
	for _, v := range vars {
		clique.AddVar(v, lbl())
	}
	for i := range vars {
		for j := range vars {
			if i != j && rng.Intn(2) == 0 {
				clique.AddEdge(vars[i], elbl(), vars[j])
			}
		}
	}
	clique.AddEdge(vars[0], elbl(), vars[1]) // never edgeless
	ps = append(ps, clique)

	loop := pattern.New()
	loop.AddVar("x", lbl()).AddVar("y", lbl())
	loop.AddEdge("x", elbl(), "x").AddEdge("x", elbl(), "y").AddEdge("y", elbl(), "x")
	ps = append(ps, loop)

	return ps
}

// wcoHost builds a host graph dense enough that cyclic patterns close:
// a seeded random property graph with self-loops and triangles mixed
// in.
func wcoHost(seed int64) *graph.Graph {
	g := gen.RandomPropertyGraph(seed, 40, 3.5, wcoLabels, wcoAttrs, 3)
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	n := g.NumNodes()
	for i := 0; i < n/2; i++ {
		a, b, c := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		g.AddEdge(a, "e", b)
		g.AddEdge(b, "e", c)
		g.AddEdge(a, "e", c)
	}
	g.AddEdge(graph.NodeID(rng.Intn(n)), "e", graph.NodeID(rng.Intn(n)))
	g.AddEdge(0, "e", 0) // at least one host self-loop
	return g
}

// TestIntersectionMatchesProbe: for dense cyclic patterns, the
// intersection path enumerates exactly the oracle's match set. (The
// name predates the oracle, which replaced the legacy scan-and-probe
// extension step.)
func TestIntersectionMatchesProbe(t *testing.T) {
	f := func(seed int64) bool {
		seed %= 1_000_000
		g := wcoHost(seed)
		snap := g.Freeze()
		for _, p := range cyclicPatterns(seed) {
			want := bruteForce(p, g, nil)
			got := denseMatches(p, func(yield func([]graph.NodeID) bool) {
				pattern.Compile(p, snap).ForEachDenseCancel(nil, nil, yield)
			})
			if !sameCanon(canonMatches(p, want), canonMatches(p, got)) {
				t.Logf("seed %d pattern %s: oracle %d matches, intersection %d",
					seed, p, len(want), len(got))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// randomFilters draws pushed-down constant filters over p's variables,
// including filters over absent attributes and values.
func randomFilters(rng *rand.Rand, p *pattern.Pattern) []pattern.ConstFilter {
	var filters []pattern.ConstFilter
	for _, v := range p.Vars() {
		if rng.Intn(2) == 0 {
			continue
		}
		a := wcoAttrs[rng.Intn(len(wcoAttrs))]
		val := graph.Value(graph.Int(rng.Intn(4))) // domain is 3: value 3 is absent
		if rng.Intn(8) == 0 {
			a = "ghost" // attribute no node carries
		}
		filters = append(filters, pattern.ConstFilter{Var: v, Attr: a, Value: val})
	}
	return filters
}

// TestFilteredMatchesPostFilter: a plan with pushed-down constant
// literals enumerates exactly the oracle's matches that satisfy those
// literals, including filters over absent attributes and values.
func TestFilteredMatchesPostFilter(t *testing.T) {
	f := func(seed int64) bool {
		seed %= 1_000_000
		g := wcoHost(seed)
		snap := g.Freeze()
		rng := rand.New(rand.NewSource(seed + 7))
		for _, p := range cyclicPatterns(seed) {
			filters := randomFilters(rng, p)
			want := bruteForce(p, g, filters)
			got := denseMatches(p, func(yield func([]graph.NodeID) bool) {
				pattern.CompileFiltered(p, snap, filters, nil).ForEachDenseCancel(nil, nil, yield)
			})
			if !sameCanon(canonMatches(p, want), canonMatches(p, got)) {
				t.Logf("seed %d pattern %s filters %v: oracle %d matches, got %d",
					seed, p, filters, len(want), len(got))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPivotRoutesThroughIntersection is the pivoted re-check
// regression: a pivot block over a filtered plan must enumerate exactly
// the oracle's pivot matches satisfying the literals, for both sorted
// candidate blocks (pre-intersected with the pivot's postings) and
// unsorted ones (per-candidate filtering) — the shapes the touched
// search feeds it.
func TestPivotRoutesThroughIntersection(t *testing.T) {
	f := func(seed int64) bool {
		seed %= 1_000_000
		g := wcoHost(seed)
		snap := g.Freeze()
		rng := rand.New(rand.NewSource(seed + 13))
		for _, p := range cyclicPatterns(seed) {
			vars := p.Vars()
			pivot := vars[rng.Intn(len(vars))]
			filters := []pattern.ConstFilter{
				{Var: pivot, Attr: wcoAttrs[rng.Intn(len(wcoAttrs))], Value: graph.Int(rng.Intn(3))},
			}
			// A sorted block (every node, ascending) and an unsorted,
			// duplicate-carrying block of touched nodes.
			sorted := append([]graph.NodeID(nil), snap.Nodes()...)
			unsorted := make([]graph.NodeID, 0, 8)
			for i := 0; i < 8; i++ {
				unsorted = append(unsorted, graph.NodeID(rng.Intn(g.NumNodes())))
			}
			for _, cands := range [][]graph.NodeID{sorted, unsorted} {
				want := bruteForcePivot(p, g, filters, pivot, cands)
				got := denseMatches(p, func(yield func([]graph.NodeID) bool) {
					pattern.CompileFiltered(p, snap, filters, nil).ForEachDensePivotCancel(pivot, cands, nil, nil, yield)
				})
				if !sameCanon(canonMatches(p, want), canonMatches(p, got)) {
					t.Logf("seed %d pattern %s pivot %s: oracle %d matches, got %d",
						seed, p, pivot, len(want), len(got))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRangesConcatenateToFullScan: seed ranges enumerated one after
// another — cut anywhere, including empty ranges and ones reaching past
// the seeds — yield the full scan's sequence of bindings, order
// included, and together tally exactly the full scan's candidates,
// intersection steps, probes and bindings: cutting a scan into morsels
// adds no work.
func TestRangesConcatenateToFullScan(t *testing.T) {
	f := func(seed int64) bool {
		seed %= 1_000_000
		g := wcoHost(seed)
		snap := g.Freeze()
		rng := rand.New(rand.NewSource(seed + 17))
		for _, p := range append(cyclicPatterns(seed), pattern.New()) {
			filters := randomFilters(rng, p)
			scan := func(enumerate func(pl *pattern.Plan, yield func([]graph.NodeID) bool)) (string, [4]uint64) {
				reg := obs.NewRegistry()
				ms := &obs.MatchStats{
					Candidates:     reg.Counter("c", ""),
					IntersectSteps: reg.Counter("i", ""),
					ProbeSteps:     reg.Counter("p", ""),
					Bindings:       reg.Counter("b", ""),
				}
				pl := pattern.CompileFiltered(p, snap, filters, nil)
				pl.SetProfile(ms)
				var seq []byte
				enumerate(pl, func(bind []graph.NodeID) bool {
					seq = fmt.Appendf(seq, "%v;", bind)
					return true
				})
				return string(seq), [4]uint64{ms.Candidates.Value(), ms.IntersectSteps.Value(), ms.ProbeSteps.Value(), ms.Bindings.Value()}
			}
			want, wantTally := scan(func(pl *pattern.Plan, yield func([]graph.NodeID) bool) {
				pl.ForEachDenseCancel(nil, nil, yield)
			})
			got, gotTally := scan(func(pl *pattern.Plan, yield func([]graph.NodeID) bool) {
				n := pl.SeedCount()
				for lo := 0; lo < n; {
					hi := lo + rng.Intn(4) // lo itself: an empty range
					if hi >= n {
						hi += rng.Intn(3) // past the seeds
					}
					pl.ForEachDenseRangeCancel(lo, hi, nil, nil, yield)
					lo = hi
				}
				pl.ForEachDenseRangeCancel(n, n+2, nil, nil, yield)
			})
			if got != want || gotTally != wantTally {
				t.Logf("seed %d pattern %s filters %v: ranges %q tally %v, full scan %q tally %v",
					seed, p, filters, got, gotTally, want, wantTally)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectInto exercises the leapfrog intersection directly
// against a map-based oracle, across list counts and skew.
func TestIntersectInto(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		lists := make([][]graph.NodeID, k)
		count := make(map[graph.NodeID]int)
		for i := range lists {
			n := rng.Intn(40)
			seen := make(map[graph.NodeID]bool)
			for j := 0; j < n; j++ {
				id := graph.NodeID(rng.Intn(60))
				if !seen[id] {
					seen[id] = true
					lists[i] = append(lists[i], id)
				}
			}
			// ascending, duplicate-free
			ids := lists[i]
			for a := 1; a < len(ids); a++ {
				for b := a; b > 0 && ids[b] < ids[b-1]; b-- {
					ids[b], ids[b-1] = ids[b-1], ids[b]
				}
			}
			for id := range seen {
				count[id]++
			}
		}
		var want []graph.NodeID
		for id, c := range count {
			if c == k {
				want = append(want, id)
			}
		}
		got := pattern.IntersectSortedForTest(lists)
		if len(got) != len(want) {
			t.Logf("seed %d: got %v", seed, got)
			return false
		}
		wantSet := make(map[graph.NodeID]bool, len(want))
		for _, id := range want {
			wantSet[id] = true
		}
		for i, id := range got {
			if !wantSet[id] || (i > 0 && got[i-1] >= id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkExtensionStep runs the intersection extension step on a
// dense triangle workload — the matcher's inner loop in isolation.
func BenchmarkExtensionStep(b *testing.B) {
	g := gen.RandomPropertyGraph(5, 2000, 16, wcoLabels, wcoAttrs, 4)
	tri := pattern.New()
	tri.AddVar("x", "a").AddVar("y", "b").AddVar("z", "c")
	tri.AddEdge("x", "e", "y").AddEdge("y", "e", "z").AddEdge("x", "e", "z")
	pl := pattern.Compile(tri, g.Freeze())
	for i := 0; i < b.N; i++ {
		n := 0
		pl.ForEachDenseCancel(nil, nil, func([]graph.NodeID) bool { n++; return true })
	}
}

// BenchmarkMatcherTriangleIntoK3 enumerates a directed triangle over a
// 1,000-node random graph's snapshot through the Match-map entry point.
func BenchmarkMatcherTriangleIntoK3(b *testing.B) {
	snap := gen.RandomPropertyGraph(3, 1000, 4, wcoLabels, []graph.Attr{"p"}, 4).Freeze()
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b").AddVar("z", "c")
	q.AddEdge("x", "e", "y")
	q.AddEdge("y", "e", "z")
	q.AddEdge("z", "e", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		pattern.ForEachMatch(q, snap, func(pattern.Match) bool { n++; return true })
	}
}
