package chase

import (
	"context"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// RunRefreeze is the differential oracle for RunCtx: the textbook
// fixpoint loop, which at the start of every round re-coerces Eq in
// full, re-freezes the coercion graph and re-enumerates every match of
// every GED as a whole pattern — no host reuse, no join, no parking.
// It shares Eq, the compiled literals and enforce with the real loop,
// so a disagreement is about which matches were visited, and when.
func RunRefreeze(ctx context.Context, g *graph.Graph, sigma ged.Set, seeds []Seed, maxRounds int) (*Result, error) {
	c := newChaser(ctx, g, sigma, seeds, maxRounds)
	defer c.report()
	eq := c.eq
	if !eq.Consistent() {
		return c.res, nil
	}
	stop := func() bool { return ctx.Err() != nil }
	for {
		if r, err, done := c.checkRound(); done {
			return r, err
		}
		co := Coerce(eq)
		host := co.Graph.Freeze()
		c.changed = false
		for gi, d := range sigma {
			pattern.Compile(d.Pattern, host).ForEachDenseCancel(stop, nil, func(bind []graph.NodeID) bool {
				if ctx.Err() != nil {
					return false
				}
				c.enforce(gi, co.RepOf, bind)
				return eq.Consistent()
			})
			if err := ctx.Err(); err != nil {
				return c.abort(err)
			}
			if !eq.Consistent() {
				return c.res, nil
			}
		}
		if !c.changed {
			break
		}
	}
	c.coerce()
	return c.res, nil
}
