package reason

// Differential tests for constant-literal pushdown: every validation
// API that now compiles plans with pushed-down antecedent literals must
// report violations byte-identical (canonical order, same evidence
// literal) to a probe-path oracle that enumerates with the legacy
// scan-and-probe plans and checks every literal post-match.

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

// probeOracleValidate is the legacy enumeration: probe plans, no
// pushdown, all literals checked after a full match materializes.
func probeOracleValidate(h pattern.Host, sigma ged.Set) []Violation {
	var out []Violation
	for _, d := range sigma {
		d := d
		pattern.CompileProbe(d.Pattern, h).ForEachBound(nil, func(m pattern.Match) bool {
			for _, l := range d.X {
				if !HoldsInGraph(h, l, m) {
					return true
				}
			}
			for _, l := range d.Y {
				if !HoldsInGraph(h, l, m) {
					out = append(out, Violation{GED: d, Match: m.Clone(), Literal: l})
					break
				}
			}
			return true
		})
	}
	SortViolations(out, sigma)
	return out
}

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
// prepared-validator validation over both hosts agree byte-for-byte
// with the probe-path oracle.
func TestPushdownViolationsByteIdentical(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		seed %= 1_000_000
		g, sigma := pushdownWorkload(seed)
		snap := g.Freeze()
		want := violationBytes(probeOracleValidate(snap, sigma), sigma)

		must := func(vs []Violation, err error) []Violation {
			if err != nil {
				t.Fatal(err)
			}
			return vs
		}
		for name, got := range map[string][]Violation{
			"graph":    must(ValidateOnCtx(ctx, g, sigma, 0)),
			"snapshot": must(ValidateOnCtx(ctx, snap, sigma, 0)),
			"parallel": must(ValidateParallelOnCtx(ctx, snap, sigma, 0, 4)),
			"prepared": NewValidatorOn(snap, sigma).Run(0),
		} {
			canon := append([]Violation(nil), got...)
			SortViolations(canon, sigma)
			if gotBytes := violationBytes(canon, sigma); gotBytes != want {
				t.Logf("seed %d: %s diverges from probe oracle:\n got %q\nwant %q", seed, name, gotBytes, want)
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
// pushed-down plans agrees with a probe oracle restricted to matches
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
		for _, v := range probeOracleValidate(snap, sigma) {
			if inTouched(v.Match) {
				want = append(want, v)
			}
		}
		for _, host := range []pattern.Host{g, snap} {
			got, err := ValidateTouchingOnCtx(ctx, host, sigma, touched, 0)
			if err != nil {
				t.Fatal(err)
			}
			if violationBytes(got, sigma) != violationBytes(want, sigma) {
				t.Logf("seed %d host %T: touching diverges", seed, host)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
