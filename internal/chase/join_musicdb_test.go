package chase_test

// An external test package: internal/gen imports internal/reason, which
// imports this package.

import (
	"context"
	"sync"
	"testing"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/gen"
)

// TestJoinChaseMusicDBAllOrders: on the catalog the benchmark chases,
// every order of the recursive keys ψ1–ψ3 merges exactly one album pair
// and one artist pair per planted duplicate (Church–Rosser, Theorem 1),
// and agrees with the legacy loop on the quotient. The six chases run
// at once, so they also share the pool of join scratch under -race.
func TestJoinChaseMusicDBAllOrders(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 17} {
		g, stats := gen.MusicDB(seed, 100, 0.2)
		keys := gen.PaperKeys()
		oracle, err := chase.RunCtxOpts(ctx, g, keys, nil, 0, chase.Options{RefreezeEachRound: true})
		if err != nil || !oracle.Consistent() {
			t.Fatalf("seed %d: oracle: err %v, consistent %v", seed, err, oracle.Consistent())
		}
		want := oracle.Materialize().String()
		var wg sync.WaitGroup
		for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sigma := ged.Set{keys[order[0]], keys[order[1]], keys[order[2]]}
				res, err := chase.RunCtxOpts(ctx, g, sigma, nil, 0, chase.Options{})
				if err != nil || !res.Consistent() {
					t.Errorf("seed %d order %v: err %v, consistent %v", seed, order, err, res.Consistent())
					return
				}
				m := res.Materialize()
				if merged := g.NumNodes() - m.NumNodes(); merged != 2*stats.DupPairs {
					t.Errorf("seed %d order %v: merged %d nodes, %d duplicate pairs were planted", seed, order, merged, stats.DupPairs)
				}
				if m.String() != want {
					t.Errorf("seed %d order %v: quotient differs from the oracle's", seed, order)
				}
			}()
		}
		wg.Wait()
	}
}
