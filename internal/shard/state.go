package shard

import (
	"context"
	"slices"
	"sync"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/reason"
)

// State is one graph's sharded validation state: the partition topology
// (shard graphs, snapshots, boundary index), the global snapshot the
// shards reflect, compiled rule orders, and — once an Apply seeds them
// — the per-shard maintained violation stores.
//
// State is single-writer: ApplyDelta, Validate and SeedStores must not
// run concurrently with each other or with the read accessors. A
// gedlib.Session serializes them under its lock.
type State struct {
	sh     *sharding
	global *graph.Snapshot

	// Compiled rule cache, keyed by rule-set identity.
	ruleSigma ged.Set
	rules     []*compiledRule

	// Per-shard maintained stores (nil until SeedStores); stores[i]
	// owns the violations whose first-variable binding shard i owns.
	storeSigma ged.Set
	stores     []*reason.ViolationStore
	merged     []reason.Violation

	// reg, when set via Observe, receives frame-traffic and
	// finalization-reject counters from every search this state runs,
	// and store-maintenance counters from its seeded stores.
	reg *obs.Registry
}

// New partitions g into p shards with part and freezes the per-shard
// snapshots. global must be g's snapshot at its current version; g must
// be quiescent for the duration.
func New(g *graph.Graph, global *graph.Snapshot, p int, part Partitioner) *State {
	return &State{sh: newSharding(g, p, part), global: global}
}

// Observe routes the state's shard-protocol metrics — partial-binding
// frames shipped per (src, dst) shard pair, bindings rejected at global
// finalization, store maintenance — into reg. A nil registry leaves the
// state unobserved.
func (st *State) Observe(reg *obs.Registry) { st.reg = reg }

// Version is the global graph version the sharding reflects.
func (st *State) Version() uint64 { return st.sh.version }

// Global is the global snapshot the sharding reflects.
func (st *State) Global() *graph.Snapshot { return st.global }

// P is the shard count.
func (st *State) P() int { return st.sh.p }

// PartitionerName labels the partitioning strategy.
func (st *State) PartitionerName() string { return st.sh.part.Name() }

// CutEdges is the boundary index's cut-edge count: distinct edges whose
// endpoints live on different shards.
func (st *State) CutEdges() int { return st.sh.cutEdges }

// OwnedNodes returns the per-shard owned-node counts.
func (st *State) OwnedNodes() []int {
	out := make([]int, st.sh.p)
	copy(out, st.sh.ownedN)
	return out
}

// StoreCounts returns the per-shard maintained violation counts, or nil
// when no stores are seeded.
func (st *State) StoreCounts() []int {
	if st.stores == nil {
		return nil
	}
	out := make([]int, len(st.stores))
	for i, s := range st.stores {
		out[i] = s.Len()
	}
	return out
}

// Seeded reports whether maintained stores exist for exactly sigma.
func (st *State) Seeded(sigma ged.Set) bool {
	return st.stores != nil && slices.Equal(st.storeSigma, sigma)
}

// ApplyDelta advances everything the state maintains — shard graphs and
// snapshots, the boundary index, the global snapshot, and the seeded
// stores — by d, the global journal slice from Version(). Cost is
// O(|Δ| per touched shard) plus the incremental search around the
// touched nodes. On error the topology and global snapshot have still
// advanced; only the stores are dropped, for SeedStores to rebuild.
func (st *State) ApplyDelta(ctx context.Context, d *graph.Delta) error {
	if d.Empty() && d.ToVersion == st.sh.version {
		return ctx.Err()
	}
	post := st.global.Apply(d)
	st.sh.applyDelta(d)
	st.global = post
	if st.stores == nil {
		return ctx.Err()
	}
	touched := d.TouchedNodes()
	if len(touched) == 0 {
		return ctx.Err()
	}
	// Fresh search: pivoted frame enumeration over the updated shard
	// snapshots, finalized against the new global snapshot.
	r := newRunner(st.sh, post, st.compiled(st.storeSigma))
	r.reg = st.reg
	r.seedTouched(touched)
	if err := r.run(ctx); err != nil {
		st.stores = nil
		return err
	}
	// Store maintenance: each shard's store re-checks its touched
	// entries and merges its fresh bucket. Stores are disjoint and
	// snapshots immutable, so the per-shard passes run in parallel.
	errs := make([]error, len(st.stores))
	var wg sync.WaitGroup
	for i := range st.stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := st.stores[i].Recheck(ctx, post, touched); err != nil {
				errs[i] = err
				return
			}
			st.stores[i].AdmitFresh(r.buckets[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.stores = nil
			return err
		}
	}
	st.merged = nil
	return nil
}

// Validate runs one full sharded validation of sigma — every rule's
// base extension order, seeded across all shards — and returns the
// violations in canonical order. It does not touch the stores.
func (st *State) Validate(ctx context.Context, sigma ged.Set) ([]reason.Violation, error) {
	r := newRunner(st.sh, st.global, st.compiled(sigma))
	r.reg = st.reg
	r.seedFull()
	if err := r.run(ctx); err != nil {
		return nil, err
	}
	out := mergeBuckets(r.buckets)
	reason.SortViolations(out, sigma)
	return out, nil
}

// SeedStores (re)builds the per-shard maintained stores for sigma from
// one full sharded validation. On error the previous stores stay.
func (st *State) SeedStores(ctx context.Context, sigma ged.Set) error {
	r := newRunner(st.sh, st.global, st.compiled(sigma))
	r.reg = st.reg
	r.seedFull()
	if err := r.run(ctx); err != nil {
		return err
	}
	val := reason.NewValidatorOn(st.global, sigma)
	val.Observe(st.reg)
	stores := make([]*reason.ViolationStore, st.sh.p)
	for i := range stores {
		stores[i] = reason.NewViolationStoreSeeded(val, r.buckets[i])
		stores[i].Observe(
			st.reg.Counter("ged_engine_store_rechecks_total", "maintained violations re-checked after a delta"),
			st.reg.Counter("ged_engine_store_drops_total", "maintained violations dropped as repaired"),
			st.reg.Counter("ged_engine_store_fresh_total", "fresh violations admitted into maintained stores"))
	}
	st.storeSigma, st.stores, st.merged = sigma, stores, nil
	return nil
}

// Violations returns the maintained violation set merged across shards
// in canonical order. The merge is cached until the next ApplyDelta.
func (st *State) Violations() []reason.Violation {
	if st.stores == nil {
		return nil
	}
	if st.merged == nil {
		var out []reason.Violation
		for _, s := range st.stores {
			out = append(out, s.Violations()...)
		}
		reason.SortViolations(out, st.storeSigma)
		st.merged = out
	}
	return st.merged
}

func (st *State) compiled(sigma ged.Set) []*compiledRule {
	if st.rules == nil || !slices.Equal(st.ruleSigma, sigma) {
		st.ruleSigma, st.rules = sigma, compileRules(sigma, st.global)
	}
	return st.rules
}

func mergeBuckets(buckets [][]reason.Violation) []reason.Violation {
	var out []reason.Violation
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}
