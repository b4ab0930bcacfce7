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
	"gedlib/internal/obs"
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
		oracle, err := chase.RunRefreeze(ctx, g, keys, nil, 0)
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
				res, err := chase.RunCtx(ctx, g, sigma, nil, 0)
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

// TestMaterializeMatchesCoercionPathMusicDB: on the catalogs the
// benchmark chases, under every order of ψ1–ψ3, the witness Materialize
// builds from Eq is byte for byte the one read off the coercion graph.
func TestMaterializeMatchesCoercionPathMusicDB(t *testing.T) {
	keys := gen.PaperKeys()
	for _, seed := range []int64{3, 17} {
		g, _ := gen.MusicDB(seed, 100, 0.2)
		for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			res := chase.Run(g, ged.Set{keys[order[0]], keys[order[1]], keys[order[2]]})
			if !res.Consistent() {
				t.Fatalf("seed %d order %v: inconsistent", seed, order)
			}
			if res.Materialize().String() != chase.MaterializeViaCoercion(res).String() {
				t.Fatalf("seed %d order %v: Materialize differs from the witness read off the coercion", seed, order)
			}
		}
	}
}

// TestJoinChaseMusicDBCounters: the benchmark's chase takes two rounds —
// one that merges every duplicate, one that confirms — and pays for one
// quotient host (round 2's; round 1 matches on the frozen catalog
// itself) and no attribute-bearing coercion, until one is asked for.
func TestJoinChaseMusicDBCounters(t *testing.T) {
	g, _ := gen.MusicDB(3, 100, 0.2)
	o := obs.New(nil)
	res, err := chase.RunCtx(obs.ContextWithObserver(context.Background(), o), g, gen.PaperKeys(), nil, 0)
	if err != nil || !res.Consistent() {
		t.Fatalf("err %v, consistent %v", err, res.Consistent())
	}
	check := func(at string, coercions uint64) {
		t.Helper()
		for name, want := range map[string]uint64{
			"ged_chase_rounds_total":    2,
			"ged_chase_quotients_total": 1,
			"ged_chase_coercions_total": coercions,
			"ged_chase_steps_total":     uint64(len(res.Steps)),
		} {
			if got := o.Registry().Counter(name, "").Value(); got != want {
				t.Errorf("%s: %s = %d, want %d", at, name, got, want)
			}
		}
	}
	res.Materialize()
	check("after the chase and Materialize", 0)
	res.Coercion()
	res.Coercion()
	check("after two Coercion calls", 1)
}
