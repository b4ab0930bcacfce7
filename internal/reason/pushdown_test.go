package reason

// Differential tests for constant-literal pushdown: every validation
// API that compiles plans with pushed-down antecedent literals must
// report violations byte-identical (canonical order, same evidence
// literal) to matchOracle, which enumerates unfiltered Match maps and
// checks every literal post-match.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// violationBytes renders a violation list canonically, evidence literal
// included, for byte-for-byte comparison.
func violationBytes(vs []Violation, sigma ged.Set) string {
	idx := make(map[*ged.GED]int, len(sigma))
	for i, d := range sigma {
		idx[d] = i
	}
	var buf []byte
	for _, v := range vs {
		buf = append(buf, byte('0'+idx[v.GED]))
		buf = append(buf, ':')
		buf = appendViolationKey(buf, v)
		buf = append(buf, v.Literal.String()...)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// pushdownWorkload derives a graph and a GED set whose antecedents mix
// constant literals (pushable), variable literals (not pushable) and
// dense patterns from one seed.
func pushdownWorkload(seed int64) (*graph.Graph, ged.Set) {
	labels := []graph.Label{"a", "b", "c"}
	attrs := []graph.Attr{"p", "q"}
	g := gen.RandomPropertyGraph(seed, 35, 3, labels, attrs, 3)
	sigma := gen.RandomGEDSet(seed+1, 8, 4, labels, attrs, 3)
	// A GED with two constant literals on distinct variables and a
	// cyclic pattern rides along: the multi-filter, multi-run case.
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b")
	q.AddEdge("x", "e", "y").AddEdge("y", "e", "x")
	rng := rand.New(rand.NewSource(seed + 2))
	sigma = append(sigma, ged.New("dense", q,
		[]ged.Literal{
			ged.ConstLit("x", "p", graph.Int(rng.Intn(3))),
			ged.ConstLit("y", "q", graph.Int(rng.Intn(3))),
		},
		[]ged.Literal{ged.VarLit("x", "q", "y", "p")},
	))
	return g, sigma
}

// TestPushdownViolationsByteIdentical: sequential, parallel and
// repeated runs of one prepared validator agree byte-for-byte with the
// Match-map oracle.
func TestPushdownViolationsByteIdentical(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		seed %= 1_000_000
		g, sigma := pushdownWorkload(seed)
		snap := g.Freeze()
		want := violationBytes(matchOracle(snap, sigma), sigma)
		val := NewValidatorOn(snap, sigma)

		must := func(vs []Violation, err error) []Violation {
			if err != nil {
				t.Fatal(err)
			}
			return vs
		}
		for name, got := range map[string][]Violation{
			"sequential": must(val.RunCtx(ctx, 0)),
			"parallel":   must(val.RunParallelCtx(ctx, 0, 4)),
			"repeated":   must(val.RunCtx(ctx, 0)),
		} {
			canon := append([]Violation(nil), got...)
			sortViolations(canon, sigma)
			if gotBytes := violationBytes(canon, sigma); gotBytes != want {
				t.Logf("seed %d: %s diverges from the oracle:\n got %q\nwant %q", seed, name, gotBytes, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPushdownTouchingByteIdentical: the touched-neighborhood API with
// pushed-down plans agrees with the oracle restricted to matches
// binding a touched node.
func TestPushdownTouchingByteIdentical(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		seed %= 1_000_000
		g, sigma := pushdownWorkload(seed)
		snap := g.Freeze()
		rng := rand.New(rand.NewSource(seed + 3))
		touched := make([]graph.NodeID, 0, 6)
		for i := 0; i < 6; i++ {
			touched = append(touched, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		inTouched := func(m pattern.Match) bool {
			for _, n := range m {
				for _, tn := range touched {
					if n == tn {
						return true
					}
				}
			}
			return false
		}
		var want []Violation
		for _, v := range matchOracle(snap, sigma) {
			if inTouched(v.Match) {
				want = append(want, v)
			}
		}
		got, err := NewValidatorOn(snap, sigma).TouchingCtx(ctx, touched, 0)
		if err != nil {
			t.Fatal(err)
		}
		if violationBytes(got, sigma) != violationBytes(want, sigma) {
			t.Logf("seed %d: touching diverges", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
