package gedlib

import (
	"context"
	"errors"
	"sync"
	"time"

	"gedlib/internal/axiom"
	"gedlib/internal/chase"
	"gedlib/internal/discover"
	"gedlib/internal/obs"
	"gedlib/internal/optimize"
	"gedlib/internal/reason"
	"gedlib/internal/repair"
	"gedlib/internal/shard"
)

// ErrChaseDepthExceeded is returned by Engine methods when a chase did
// not converge within the bound set by WithChaseDepth.
var ErrChaseDepthExceeded = chase.ErrDepthExceeded

// Engine is the entry point of the library: one configured instance of
// the paper's analyses. Every method takes a context.Context first and
// honors its cancellation mid-run — the heavy loops (match enumeration,
// chase rounds, worker pools) check the context cooperatively and
// return its error, so a server can bound each request with
// context.WithTimeout.
//
// An Engine is cheap, configured once at New, and safe for concurrent
// use. Its mutable state is maintained validation machinery, kept in a
// per-graph cache entry (bounded across graphs — see below) and guarded
// by a mutex:
//
//   - a snapshot cache: the graph-bound methods (Validate,
//     ValidateIncremental, Apply, Satisfies, Discover) need a read-only
//     gedlib.Snapshot of the graph. A cached snapshot whose version
//     matches is reused as is; one that is merely stale is advanced by
//     the graph's own change journal (Graph.DeltaSince +
//     Snapshot.Apply) in time proportional to the changes — the engine
//     pays a full O(|G|) freeze only on first contact with a graph (or
//     when the backlog approaches the graph's size, where a fresh
//     freeze is cheaper).
//   - a plan cache: compiled match plans and pushed-down access paths
//     (a prepared validator) keyed on (rule set, snapshot); when only
//     the snapshot moved, plans are rebound rather than recompiled.
//   - a violation store for Apply: the maintained violation set that
//     makes repeated incremental validation O(|Δ|) end to end.
//
// One Engine may host many long-lived graphs — the shape a serving
// catalog needs. The cache holds at most WithGraphCacheBound entries
// (default DefaultGraphCacheBound); touching a graph beyond the bound
// evicts the least-recently-used other graph's entry, whose state is
// simply rebuilt on next contact. Forget releases a graph's entry
// eagerly when the caller knows the graph is gone for good.
type Engine struct {
	workers        int
	violationLimit int
	chaseDepth     int
	cacheBound     int
	shards         int
	partitioner    Partitioner

	// obs is the injected observer (WithObserver), nil by default; em
	// caches its metric handles so hot paths skip the registry lookup.
	obs *Observer
	em  *engineMetrics

	mu    sync.Mutex
	clock uint64
	cache map[*Graph]*engEntry
}

// engEntry is the engine's maintained state for one graph. Entries are
// created on first contact and evicted in LRU order past the cache
// bound. Apply pins its entry for the duration of the call — eviction
// skips pinned entries (the bound is soft while calls are in flight),
// which is what keeps "Apply serializes with itself per graph" true
// even when the cache is churning. Forget removes an entry regardless;
// an in-flight Apply then finishes on the orphan with correct results
// and the state is rebuilt on next contact.
type engEntry struct {
	lastUse uint64 // engine clock at last touch, under Engine.mu
	pinned  int    // in-flight Applies holding this entry, under Engine.mu

	snapVer  uint64
	snapshot *Snapshot

	valSnap   *Snapshot
	valSigma  RuleSet
	validator *reason.Validator

	// applyMu serializes Apply per graph: each violation store is
	// single-writer. Applies on different graphs run concurrently.
	applyMu    sync.Mutex
	storeSigma RuleSet
	store      *reason.ViolationStore

	// shardState is the partitioned topology and per-shard stores when
	// WithShards is active; single-writer under applyMu like the store.
	shardState *shard.State
}

// DefaultGraphCacheBound is how many graphs an Engine retains cached
// state for unless WithGraphCacheBound overrides it.
const DefaultGraphCacheBound = 16

// entryLocked returns g's cache entry, creating it (and evicting the
// LRU entry past the bound) if needed. Engine.mu must be held.
func (e *Engine) entryLocked(g *Graph) *engEntry {
	ent := e.cache[g]
	if ent == nil {
		ent = &engEntry{}
		e.cache[g] = ent
		e.evictLocked(g)
	}
	e.clock++
	ent.lastUse = e.clock
	return ent
}

// evictLocked drops least-recently-used entries until the cache is
// back under its bound, never touching keep or pinned entries. Called
// on entry creation and again when an Apply unpins — while every
// over-bound entry is pinned the bound is soft, and the unpin is what
// brings the cache back down afterwards. Engine.mu must be held.
func (e *Engine) evictLocked(keep *Graph) {
	for e.cacheBound > 0 && len(e.cache) > e.cacheBound {
		var victim *Graph
		oldest := uint64(0)
		for vg, vent := range e.cache {
			if vg == keep || vent.pinned > 0 {
				continue
			}
			if victim == nil || vent.lastUse < oldest {
				victim, oldest = vg, vent.lastUse
			}
		}
		if victim == nil {
			return
		}
		delete(e.cache, victim)
	}
}

// Forget releases every cached artifact for g (snapshot, prepared
// validator, maintained violation store). A serving catalog calls this
// when it drops a graph, so the entry does not linger until LRU
// eviction; calling it for an unknown graph is a no-op.
func (e *Engine) Forget(g *Graph) {
	e.mu.Lock()
	delete(e.cache, g)
	e.mu.Unlock()
}

// CachedGraphs reports how many graphs the engine currently retains
// cached state for. It is bounded by WithGraphCacheBound.
func (e *Engine) CachedGraphs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// fresh returns a snapshot of g's current state: the cached one when it
// is current, the cached one advanced by the graph's change journal
// when it is stale but close, a full freeze otherwise. The heavy work
// runs outside the mutex, so one call catching up a cold graph never
// blocks concurrent calls that hit the cache (two concurrent cold calls
// may both build; the results are equivalent and one wins the slot).
func (e *Engine) fresh(g *Graph) *Snapshot {
	v := g.Version()
	e.mu.Lock()
	ent := e.entryLocked(g)
	base, baseVer := ent.snapshot, ent.snapVer
	e.mu.Unlock()
	if base != nil && baseVer == v {
		e.em.snapHit.Inc()
		return base
	}
	var s *Snapshot
	if base != nil && baseVer < v {
		// A backlog comparable to the graph is no cheaper to apply than
		// a fresh freeze, and the freeze re-compacts the page storage;
		// a nil delta means the journal no longer reaches back this far.
		if d := g.DeltaSince(baseVer); d != nil && d.Size() <= g.Size()/4 {
			s = base.Apply(d)
			e.em.snapAdvance.Inc()
		}
	}
	if s == nil {
		s = g.Freeze()
		e.em.snapFreeze.Inc()
	}
	e.mu.Lock()
	// Write back lookup-only: re-creating the entry here would
	// resurrect a graph Forget dropped mid-call (an LRU-evicted entry
	// merely misses this one caching opportunity).
	if cur := e.cache[g]; cur != nil {
		e.clock++
		cur.lastUse = e.clock
		cur.snapVer, cur.snapshot = s.SourceVersion(), s
	}
	e.mu.Unlock()
	return s
}

// SnapshotOf returns an up-to-date immutable snapshot of g, reusing and
// advancing the engine's cached one exactly like the graph-bound
// methods do. This is the read-path handoff a serving layer publishes
// to concurrent readers: the snapshot is safe for unsynchronized
// concurrent use, while the call itself reads g and must be
// synchronized with g's mutators like any other graph-bound method.
func (e *Engine) SnapshotOf(g *Graph) *Snapshot {
	return e.fresh(g)
}

// SameRules reports whether two rule sets are the same rules in the
// same order, by identity — rules are built once and shared. This is
// exactly the keying Apply uses for its maintained state, exported so
// a serving layer can make the same "did the rules actually change"
// decision the engine will.
func SameRules(a, b RuleSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// plansFor returns a prepared validator (compiled plans + pushed-down
// pivots) for sigma over snap, reusing g's cached one outright when
// nothing moved and rebinding its plans when only the snapshot advanced
// within its lineage. Recompiling from scratch happens only on a new
// rule set or an unrelated snapshot.
func (e *Engine) plansFor(g *Graph, snap *Snapshot, sigma RuleSet) *reason.Validator {
	e.mu.Lock()
	ent := e.entryLocked(g)
	val, valSnap, valSigma := ent.validator, ent.valSnap, ent.valSigma
	e.mu.Unlock()
	if val != nil && SameRules(valSigma, sigma) {
		if valSnap == snap {
			return val
		}
		if valSnap.Lineage() == snap.Lineage() {
			val = val.Rebase(snap)
			e.storePlans(g, snap, sigma, val)
			return val
		}
	}
	val = reason.NewValidatorOn(snap, sigma)
	val.Observe(e.obs.Registry())
	e.storePlans(g, snap, sigma, val)
	return val
}

// storePlans records a prepared validator in g's cache entry —
// lookup-only, so it cannot resurrect an entry Forget removed.
func (e *Engine) storePlans(g *Graph, snap *Snapshot, sigma RuleSet, val *reason.Validator) {
	e.mu.Lock()
	if ent := e.cache[g]; ent != nil {
		e.clock++
		ent.lastUse = e.clock
		ent.validator, ent.valSnap, ent.valSigma = val, snap, sigma
	}
	e.mu.Unlock()
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets how many goroutines Validate uses. 1 (the default)
// validates sequentially; larger values partition each rule's match
// space across n workers; n <= 0 selects GOMAXPROCS. The result is
// deterministic regardless of worker count.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithViolationLimit bounds how many violations Validate and
// ValidateIncremental report. 0 (the default) reports all of them; a
// server that only needs "is it dirty, and roughly where" can cap the
// work.
func WithViolationLimit(n int) Option {
	return func(e *Engine) { e.violationLimit = n }
}

// WithChaseDepth bounds the number of fixpoint rounds of every chase
// the engine runs (Chase, Repair, CheckSat, Implies, Prove,
// OptimizeQuery). The chase always terminates (Theorem 1), so the bound
// is a resource valve for adversarial inputs, not a semantics knob; an
// exceeded bound surfaces as ErrChaseDepthExceeded. 0 (the default)
// means unbounded.
func WithChaseDepth(d int) Option {
	return func(e *Engine) { e.chaseDepth = d }
}

// WithShards partitions every graph the engine touches into p shards
// and runs Validate and Apply through the sharded path: a Partitioner
// (WithPartitioner, hash by default) assigns node ownership, each shard
// keeps its own snapshot lineage and — under Apply — its own maintained
// violation store, and validation executes as parallel shard-local
// extension with partial bindings shipped across shard queues at
// boundaries. Deltas route to the shards they touch (O(|Δ| per shard))
// and per-shard violation sets merge into the same canonical order the
// monolithic path produces — p ≤ 1 (the default) keeps that monolithic
// path, which remains the differential oracle for the sharded one.
//
// In sharded mode Validate serializes with Apply per graph (both
// advance the single-writer shard state) and returns no partial results
// on cancellation.
func WithShards(p int) Option {
	return func(e *Engine) { e.shards = p }
}

// WithPartitioner selects the node-placement strategy WithShards uses:
// HashPartitioner (the O(1) baseline) or GreedyPartitioner (streaming
// edge-cut minimization). A nil partitioner keeps the current one.
func WithPartitioner(part Partitioner) Option {
	return func(e *Engine) {
		if part != nil {
			e.partitioner = part
		}
	}
}

// WithGraphCacheBound bounds how many graphs the engine retains cached
// state for (snapshot, prepared validator, maintained violation store).
// Past the bound the least-recently-used graph's entry is evicted and
// rebuilt on next contact. The default is DefaultGraphCacheBound; n <= 0
// removes the bound (the pre-catalog behavior — only safe when the set
// of graphs an engine ever sees is itself bounded).
func WithGraphCacheBound(n int) Option {
	return func(e *Engine) { e.cacheBound = n }
}

// New returns an Engine with the given options applied over the
// defaults: sequential validation, no violation limit, no chase bound,
// cached state for up to DefaultGraphCacheBound graphs.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:     1,
		cacheBound:  DefaultGraphCacheBound,
		partitioner: shard.NewHash(),
		cache:       make(map[*Graph]*engEntry),
	}
	for _, o := range opts {
		o(e)
	}
	e.em = newEngineMetrics(e.obs.Registry())
	return e
}

// pin returns g's entry held against LRU eviction, with the matching
// release. Pinning is what keeps "Apply serializes with itself per
// graph" true while the cache churns: a concurrent call for the same
// graph finds this same entry and blocks on its applyMu.
func (e *Engine) pin(g *Graph) (*engEntry, func()) {
	e.mu.Lock()
	ent := e.entryLocked(g)
	ent.pinned++
	e.mu.Unlock()
	return ent, func() {
		e.mu.Lock()
		ent.pinned--
		e.evictLocked(nil)
		e.mu.Unlock()
	}
}

// shardStateFor returns g's sharded state caught up to g's current
// version — advancing it by the graph's journal when the backlog is
// small, repartitioning from scratch otherwise. The caller must hold
// ent.applyMu (the state is single-writer) and keep g quiescent, like
// every graph-bound method.
func (e *Engine) shardStateFor(ctx context.Context, g *Graph, ent *engEntry) (*shard.State, error) {
	st := ent.shardState
	if st != nil && st.P() == e.shards {
		d := g.DeltaSince(st.Version())
		switch {
		case d != nil && d.Size() <= g.Size()/4:
			if err := st.ApplyDelta(ctx, d); err != nil {
				ent.shardState = nil
				return nil, err
			}
		case g.Version() != st.Version():
			// Journal trimmed or backlog rivals the graph: repartition.
			st = nil
		}
	} else {
		st = nil
	}
	if st == nil {
		st = shard.New(g, e.fresh(g), e.shards, e.partitioner)
		st.Observe(e.obs.Registry())
		ent.shardState = st
	}
	// Publish the sharded global snapshot into the plain snapshot cache
	// so the other graph-bound methods reuse it instead of re-advancing.
	e.mu.Lock()
	if cur := e.cache[g]; cur != nil {
		cur.snapVer, cur.snapshot = st.Global().SourceVersion(), st.Global()
	}
	e.mu.Unlock()
	return st, nil
}

// Validate finds the violations of Σ in g (Section 5.3): matches of a
// rule's pattern that satisfy its antecedent but fail a consequent
// literal. g ⊨ Σ iff the result is empty. Validation runs sequentially
// or data-parallel according to WithWorkers, and reports at most
// WithViolationLimit violations. With one worker the order — and so the
// prefix a limit keeps — is each rule's plan enumeration order, which
// follows the planner (it prefers variables that close a literal, so a
// release may move it); Apply and parallel results are in canonical
// order. The scan is violation-directed: a partial binding is abandoned
// once an antecedent literal over it fails or the consequent holds.
//
// On cancellation the violations found so far are returned together
// with ctx's error.
func (e *Engine) Validate(ctx context.Context, g *Graph, sigma RuleSet) ([]Violation, error) {
	defer e.em.observe(e.em.validate, time.Now())
	if e.shards > 1 {
		return e.validateSharded(ctx, g, sigma)
	}
	val := e.plansFor(g, e.fresh(g), sigma)
	if e.workers == 1 {
		return val.RunCtx(ctx, e.violationLimit)
	}
	return val.RunParallelCtx(ctx, e.violationLimit, e.workers)
}

// validateSharded is Validate through the partitioned path: catch the
// shard topology up to the graph, run the frame-protocol search across
// all shards, and report the canonical merge.
func (e *Engine) validateSharded(ctx context.Context, g *Graph, sigma RuleSet) ([]Violation, error) {
	ent, unpin := e.pin(g)
	defer unpin()
	ent.applyMu.Lock()
	defer ent.applyMu.Unlock()
	st, err := e.shardStateFor(ctx, g, ent)
	if err != nil {
		return nil, err
	}
	vs, err := st.Validate(ctx, sigma)
	if err != nil {
		return nil, err
	}
	return e.limited(vs), nil
}

// ValidateIncremental finds the violations of Σ whose match involves at
// least one of the touched nodes. After a localized update, every *new*
// violation touches an updated node, so re-checking only those matches
// replaces a full re-validation.
//
// The engine brings its cached snapshot up to date by applying the
// graph's change journal (O(|Δ|), no freeze) and runs the
// touched-neighborhood search over it with cached plans, so the
// steady-state call is proportional to the update, not the graph. The
// exceptions are the same as every graph-bound method's: first contact
// with a graph (or contact after LRU eviction, or after a backlog
// rivaling the graph) pays one full freeze before the cheap regime
// resumes. For a maintained answer to "what are all current
// violations", use Apply instead.
func (e *Engine) ValidateIncremental(ctx context.Context, g *Graph, sigma RuleSet, touched []NodeID) ([]Violation, error) {
	defer e.em.observe(e.em.validateInc, time.Now())
	val := e.plansFor(g, e.fresh(g), sigma)
	return val.TouchingCtx(ctx, touched, e.violationLimit)
}

// Apply incorporates the graph's mutations since the previous Apply (or
// any other graph-bound call) into the engine's maintained validation
// state, and returns the complete current violation set of Σ in
// canonical order, truncated to WithViolationLimit.
//
// The first Apply for a (graph, rules) pair seeds a maintained
// violation store with one full validation. Every later Apply costs
// O(|Δ| + touched neighborhoods) matcher work plus a cheap filter scan
// of the stored set: the cached snapshot advances by the graph's
// change journal (Snapshot.Apply — no freeze), stored violations whose
// match the delta touches are re-checked, and the touched
// neighborhoods are searched for new ones. Apply serializes with
// itself; other Engine methods may run concurrently.
//
// The maintained state is keyed on the graph and the rule set *by
// identity* (same rules, same order, same pointers — rules are built
// once and shared). Passing a freshly rebuilt RuleSet on every call
// silently re-seeds every time, making Apply no cheaper than Validate;
// build Σ once and reuse it.
//
// On error (cancellation mid-seed or mid-update) the store is
// discarded and the next Apply re-seeds; no partial state is returned.
func (e *Engine) Apply(ctx context.Context, g *Graph, sigma RuleSet) ([]Violation, error) {
	defer e.em.observe(e.em.apply, time.Now())
	// Pin the entry so LRU churn cannot evict it mid-call: a concurrent
	// Apply for the same graph must find this same entry (and block on
	// its applyMu) rather than seed a duplicate store on a fresh one.
	ent, unpin := e.pin(g)
	defer unpin()
	ent.applyMu.Lock()
	defer ent.applyMu.Unlock()
	if e.shards > 1 {
		st, err := e.shardStateFor(ctx, g, ent)
		if err != nil {
			return nil, err
		}
		if !st.Seeded(sigma) {
			if err := st.SeedStores(ctx, sigma); err != nil {
				ent.shardState = nil
				return nil, err
			}
		}
		return e.limited(st.Violations()), nil
	}
	if st := ent.store; st != nil && SameRules(ent.storeSigma, sigma) {
		d := g.DeltaSince(st.Snapshot().SourceVersion())
		if d != nil && d.Size() <= g.Size()/4 {
			snap := st.Snapshot().Apply(d)
			if err := st.Apply(ctx, snap, d.TouchedNodes()); err != nil {
				ent.store = nil
				return nil, err
			}
			e.mu.Lock()
			// ent is pinned against LRU eviction, but Forget may have
			// removed it; lookup-only so a dropped graph stays dropped.
			if cur := e.cache[g]; cur != nil {
				cur.snapVer, cur.snapshot = snap.SourceVersion(), snap
			}
			e.mu.Unlock()
			return e.limited(st.Violations()), nil
		}
		// The backlog rivals the graph; fall through and re-seed from a
		// fresh freeze.
	}
	st, err := reason.NewViolationStoreParallelCtx(ctx, e.plansFor(g, e.fresh(g), sigma), e.workers)
	if err != nil {
		ent.store = nil
		return nil, err
	}
	st.Observe(e.em.storeRecheck, e.em.storeDrop, e.em.storeFresh)
	ent.store, ent.storeSigma = st, sigma
	return e.limited(st.Violations()), nil
}

// limited applies the engine's violation limit and copies the result:
// ViolationStore.Violations returns (possibly cached) store-owned
// state, and Apply's callers get the same ownership Validate's do.
func (e *Engine) limited(vs []Violation) []Violation {
	if e.violationLimit > 0 && len(vs) > e.violationLimit {
		vs = vs[:e.violationLimit]
	}
	out := make([]Violation, len(vs))
	copy(out, vs)
	return out
}

// ShardStats describes the shard topology the engine maintains for one
// graph under WithShards.
type ShardStats struct {
	// Shards is the shard count P.
	Shards int
	// Partitioner names the placement strategy.
	Partitioner string
	// CutEdges counts distinct edges whose endpoints live on different
	// shards — the boundary index's headline number.
	CutEdges int
	// OwnedNodes are the per-shard owned-node counts.
	OwnedNodes []int
	// ShardViolations are the per-shard maintained violation counts
	// (violations live with the owner of their first variable binding);
	// nil until an Apply has seeded the sharded stores.
	ShardViolations []int
}

// ShardStats reports g's current shard topology, when WithShards is
// active and a prior Validate or Apply built the state (it never builds
// one itself — stats stay O(P)). It serializes with Apply on the same
// graph, like every sharded-state reader.
func (e *Engine) ShardStats(g *Graph) (ShardStats, bool) {
	if e.shards <= 1 {
		return ShardStats{}, false
	}
	e.mu.Lock()
	ent := e.cache[g]
	if ent == nil {
		e.mu.Unlock()
		return ShardStats{}, false
	}
	ent.pinned++
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		ent.pinned--
		e.evictLocked(nil)
		e.mu.Unlock()
	}()
	ent.applyMu.Lock()
	defer ent.applyMu.Unlock()
	st := ent.shardState
	if st == nil {
		return ShardStats{}, false
	}
	return ShardStats{
		Shards:          st.P(),
		Partitioner:     st.PartitionerName(),
		CutEdges:        st.CutEdges(),
		OwnedNodes:      st.OwnedNodes(),
		ShardViolations: st.StoreCounts(),
	}, true
}

// Satisfies reports g ⊨ Σ, stopping at the first violation.
func (e *Engine) Satisfies(ctx context.Context, g *Graph, sigma RuleSet) (bool, error) {
	vs, err := e.plansFor(g, e.fresh(g), sigma).RunCtx(ctx, 1)
	if err != nil {
		return false, err
	}
	return len(vs) == 0, nil
}

// Chase runs the revised chase of g by Σ (Theorem 1): the canonical,
// order-independent enforcement of every rule to a fixpoint. The input
// graph is not modified; the result's Materialize yields the quotient
// graph, and Consistent reports whether enforcement succeeded (an
// inconsistent chase is the paper's ⊥).
func (e *Engine) Chase(ctx context.Context, g *Graph, sigma RuleSet) (*ChaseResult, error) {
	defer e.em.observe(e.em.chase, time.Now())
	return chase.RunCtx(obs.ContextWithObserver(ctx, e.obs), g, sigma, nil, e.chaseDepth)
}

// Repair cleans g under Σ: the chase read as an edit script. Attribute
// equations fill in or correct values, id literals merge duplicate
// entities. The input graph is not modified. When no repair exists
// (e.g. a forbidding rule matched), the result carries the conflict for
// human resolution instead of silently choosing a side; that is not an
// error — the error reports only cancellation or an exceeded chase
// bound.
func (e *Engine) Repair(ctx context.Context, g *Graph, sigma RuleSet) (*RepairResult, error) {
	return repair.RunCtx(ctx, g, sigma, e.chaseDepth)
}

// CheckSat decides whether Σ is satisfiable in the strong sense of
// Section 5.1 — has a model in which every pattern matches — by chasing
// the canonical graph G_Σ (Theorem 2). The result carries a certified
// witness model when satisfiable.
func (e *Engine) CheckSat(ctx context.Context, sigma RuleSet) (*SatResult, error) {
	return reason.CheckSatCtx(ctx, sigma, e.chaseDepth)
}

// Implies decides Σ ⊨ φ by chasing φ's canonical graph from Eq_X
// (Theorem 4). When not implied, the result names the first consequent
// literal that could not be deduced.
func (e *Engine) Implies(ctx context.Context, sigma RuleSet, phi *Rule) (*ImplResult, error) {
	return reason.ImpliesCtx(ctx, sigma, phi, e.chaseDepth)
}

// Prove constructs a machine-checkable A_GED derivation of Σ ⊢ φ
// (Theorem 7: the axiom system is sound and complete). It returns an
// error when Σ does not imply φ.
func (e *Engine) Prove(ctx context.Context, sigma RuleSet, phi *Rule) (*Proof, error) {
	return axiom.ProveCtx(ctx, sigma, phi, e.chaseDepth)
}

// CheckProof verifies an A_GED proof against Σ step by step, rejecting
// any tampered or ill-founded derivation.
func (e *Engine) CheckProof(ctx context.Context, sigma RuleSet, p *Proof) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return axiom.Check(sigma, p)
}

// Discover mines rules that hold exactly on g — the profiling
// counterpart of Validate — pruning every candidate implied by the
// rules already kept, as Section 5.2 motivates. Results are
// deterministic. WithChaseDepth bounds each pruning chase; a candidate
// whose implication check exceeds the bound is kept rather than
// guessed about.
func (e *Engine) Discover(ctx context.Context, g *Graph, opt DiscoverOptions) ([]Discovered, error) {
	return discover.GFDsOnCtx(ctx, g, e.fresh(g), opt, e.chaseDepth)
}

// OptimizeQuery rewrites a pattern query under rules known to hold on
// the data: chase-identified variables merge (fewer joins), deduced
// constants become index-backed selections, and a contradictory query
// is proved empty without touching data.
func (e *Engine) OptimizeQuery(ctx context.Context, q *Query, sigma RuleSet) (*RewriteResult, error) {
	return optimize.RewriteCtx(ctx, q, sigma, e.chaseDepth)
}

// IsCancellation reports whether an error returned by an Engine method
// is a context cancellation or deadline expiry, as opposed to a
// resource-bound or input error.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
