package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gedlib"
	"gedlib/internal/obs"
	"gedlib/persist"
)

// Catalog owns the tenant graphs of a serving process: each entry is a
// graph's session, its registered rule set, its coalescing write
// batcher, and the immutable views published to readers. All methods
// are safe for concurrent use.
type Catalog struct {
	cfg Config
	eng *gedlib.Engine

	// reg is the catalog-lifetime metrics registry; obs is the pipeline
	// observer sharing it. See obs.go.
	reg *obs.Registry
	obs *gedlib.Observer

	// store is the durability layer (nil when Config.DataDir is empty).
	// follower marks a catalog tailing another process's store: entries
	// are read-only replicas and Create/Delete/writes are rejected.
	// roleMu serializes the role transitions (Promote, Demote, Close)
	// against each other; steady-state paths read the atomics lock-free.
	store        *persist.Store
	follower     atomic.Bool
	roleMu       sync.Mutex
	followCtx    context.Context
	followCancel context.CancelFunc
	followWG     sync.WaitGroup

	// Promotion metrics: count and wall-time (the measured RTO) of
	// follower-to-leader transitions.
	mPromotions *obs.Counter
	hPromotion  *obs.Histogram

	// flushing counts the flushes running across the catalog; background
	// checkpoint writers give way while it is nonzero (checkpoint.go).
	flushing atomic.Int64

	mu      sync.RWMutex
	entries map[string]*GraphEntry
	// creating reserves names while their entry is still being loaded
	// and seeded, so a racing duplicate Create fails fast instead of
	// burning a full validation first.
	creating map[string]struct{}
}

// NewCatalog returns an empty catalog configured by cfg. With a
// DataDir it opens (creating if needed) the persist store under it;
// call Restore to re-adopt the graphs already there, or Follow to tail
// them read-only.
func NewCatalog(cfg Config) (*Catalog, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	observer := obs.NewWithRegistry(reg, cfg.OnSlowOp)
	observer.SetSlowOp(cfg.SlowOp)
	c := &Catalog{
		cfg:      cfg,
		eng:      cfg.engine(observer),
		reg:      reg,
		obs:      observer,
		entries:  make(map[string]*GraphEntry),
		creating: make(map[string]struct{}),
	}
	c.mPromotions = reg.Counter("ged_promotions_total",
		"follower-to-leader promotions completed")
	c.hPromotion = reg.Histogram("ged_promotion_seconds",
		"wall time of follower-to-leader promotions (the RTO paid)")
	if cfg.DataDir != "" {
		mode, err := persist.ParseFsyncMode(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		c.store, err = persist.Open(cfg.DataDir, persist.Options{
			Fsync:             mode,
			CheckpointEvery:   cfg.CheckpointEvery,
			RetainCheckpoints: cfg.RetainCheckpoints,
			FS:                cfg.FS,
			Observer:          observer,
		})
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DataDir reports the catalog's durable directory ("" when in-memory).
func (c *Catalog) DataDir() string {
	if c.store == nil {
		return ""
	}
	return c.store.Dir()
}

// IsFollower reports whether the catalog is a read-only replica.
func (c *Catalog) IsFollower() bool { return c.follower.Load() }

// Role reports the catalog's current role: "follower" while tailing
// another process's store, "leader" otherwise.
func (c *Catalog) Role() string {
	if c.follower.Load() {
		return "follower"
	}
	return "leader"
}

// View is one published read-path state of a graph: everything a
// reader needs, immutable, handed over atomically. Readers load the
// current view once and work against it for the whole request; a flush
// landing meanwhile publishes a successor without disturbing them.
type View struct {
	// Epoch increments once per publication (flush, rules change, load).
	Epoch uint64
	// Version is the graph version the view reflects.
	Version uint64
	// Snap is the immutable snapshot reads run against.
	Snap *gedlib.Snapshot
	// Val is a prepared validator over Snap for the entry's rules.
	Val *gedlib.Validator
	// Violations is the complete maintained violation set of the rules
	// in Snap, in canonical order.
	Violations []gedlib.Violation
	// Names maps between wire-format string node ids and NodeIDs as of
	// this view.
	Names *nameTable
	// Rules is the rule set the violations were maintained under.
	Rules gedlib.RuleSet
	// text is Rules' wire text, rendered once per rule set for the
	// bodies that carry violations.
	text *ruleText
}

// GraphEntry is one tenant graph of the catalog.
type GraphEntry struct {
	name string
	cat  *Catalog

	// mu guards the session, writes to the name index and the rule set,
	// and the move into closing happens under it. A flush holds it
	// throughout; the read path never takes it.
	mu    sync.RWMutex
	sess  *gedlib.Session
	names *nameIndex
	sigma gedlib.RuleSet
	text  *ruleText // sigma's wire text
	// reload marks the session behind the log: from a flush's sync until
	// its Apply returns, and after a panic between them until a probe
	// reloads the entry from the log. Guarded by mu.
	reload bool

	epoch atomic.Uint64
	view  atomic.Pointer[View]

	// retained is a bounded observability history of recent views
	// (newest last). Reader correctness never depends on it — a reader
	// holds its view alive through its own reference; retention exists
	// so epochs just replaced remain inspectable, and stays cheap
	// because successive snapshots share storage copy-on-write.
	retainMu sync.Mutex
	retained []*View

	// life is the lifecycle record (see health.go); probeStop ends the
	// auto-probe loop when the entry closes.
	life      atomic.Pointer[lifecycle]
	probeStop chan struct{}

	// b is the write batcher, set before the entry first reaches
	// leader-ok (so every writable entry has one); followers have none.
	// An atomic pointer because promotion attaches a batcher to a live
	// entry that lock-free paths (Mutate, Stats) are reading.
	b atomic.Pointer[batcher]

	// ps is the entry's durability handle (nil when the catalog is
	// in-memory or a follower). An atomic pointer for the same reason as
	// b: promotion swaps a writable handle onto a live replica entry.
	// The GraphStore's own methods are internally synchronized.
	ps atomic.Pointer[persist.GraphStore]
	// ckpt delivers the outcome of the background checkpoint in flight
	// (nil when none is); guarded by mu. ckptBusy mirrors it for the
	// ged_checkpoint_inflight gauge. See checkpoint.go.
	ckpt     chan ckptResult
	ckptBusy atomic.Bool
	// rulesSrc is the DSL source sigma was parsed from (checkpoints
	// persist the source, not the parsed set). Guarded by mu.
	rulesSrc string

	// mFolRecords/folLag are a follower's replication counters (records
	// applied, staleness of the last), folFailures the consecutive
	// tail/recover failures (reset on success).
	mFolRecords *obs.Counter
	folLag      atomic.Int64
	folFailures atomic.Uint64

	// promotionNanos is the wall time of the last promotion that created
	// this leader (its RTO share).
	promotionNanos atomic.Int64

	// Serving counters, resolved from the catalog registry by
	// initMetrics (see obs.go): degraded-mode transitions, transient WAL
	// append retries, recovery probes, and reads served. The registry is
	// catalog-lifetime, so the handles are never nil on a live entry.
	mWALRetries *obs.Counter
	mProbes     *obs.Counter
	mRecoveries *obs.Counter
	mDegraded   *obs.Counter
	mReads      *obs.Counter
	// mFenced counts fenced transitions; mFencedAppends the WAL
	// appends/syncs the epoch fence actually refused.
	mFenced        *obs.Counter
	mFencedAppends *obs.Counter

	// Per-stage flush pipeline histograms.
	stQueue, stWAL, stFsync, stApply, stPublish *obs.Histogram
}

// Create adds a named graph to the catalog. graphJSON, when non-nil, is
// the JSON wire format accepted by gedlib.LoadGraph; nil creates an
// empty graph. The new entry starts with an empty rule set and an
// already-published first view.
func (c *Catalog) Create(name string, graphJSON []byte) (*GraphEntry, error) {
	if c.follower.Load() {
		return nil, ErrReadOnly
	}
	if !validName(name) {
		return nil, fmt.Errorf("serve: invalid graph name %q (want [A-Za-z0-9_.-]{1,128})", name)
	}
	// Reserve the name before the load/seed work: a racing duplicate
	// fails here instead of seeding a throwaway graph.
	c.mu.Lock()
	_, dup := c.entries[name]
	if _, mid := c.creating[name]; dup || mid {
		c.mu.Unlock()
		return nil, ErrExists
	}
	c.creating[name] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.creating, name)
		c.mu.Unlock()
	}()
	g, byName := gedlib.NewGraph(), map[string]gedlib.NodeID(nil)
	if graphJSON != nil {
		var err error
		if g, byName, err = gedlib.LoadGraph(graphJSON); err != nil {
			return nil, fmt.Errorf("serve: load graph %q: %w", name, err)
		}
	}
	ent := c.newEntry(name, stLeaderOK)
	if err := ent.openLocked(context.Background(), g, newNameIndex(byName), gedlib.RuleSet{}, ""); err != nil {
		return nil, err
	}
	if c.store != nil {
		gs, err := c.store.Create(name, ent.cutLocked())
		if err != nil {
			if errors.Is(err, persist.ErrExists) {
				// On-disk leftovers under a name the catalog does not
				// hold (e.g. a crashed boot that skipped Restore) are a
				// conflict, not something to silently overwrite.
				return nil, fmt.Errorf("%w (durable state at %s)", ErrExists, name)
			}
			return nil, err
		}
		ent.ps.Store(gs)
	}
	ent.startBatcher()
	c.put(ent) // the reservation guarantees the slot is free
	return ent, nil
}

// put publishes an entry to the catalog map.
func (c *Catalog) put(ent *GraphEntry) {
	c.mu.Lock()
	c.entries[ent.name] = ent
	c.mu.Unlock()
}

// startBatcher attaches and starts the entry's write batcher.
func (ent *GraphEntry) startBatcher() {
	nb := newBatcher(ent, ent.cat.cfg)
	ent.b.Store(nb)
	go nb.run()
}

// Get returns the named entry.
func (c *Catalog) Get(name string) (*GraphEntry, error) {
	c.mu.RLock()
	ent := c.entries[name]
	c.mu.RUnlock()
	if ent == nil {
		return nil, ErrNotFound
	}
	return ent, nil
}

// Names lists the catalog's graph names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Delete removes a graph: pending writes are flushed, the batcher
// stops, and its durable directory (if any) is removed.
func (c *Catalog) Delete(name string) error {
	if c.follower.Load() {
		return ErrReadOnly
	}
	ent := c.remove(name)
	if ent == nil {
		return ErrNotFound
	}
	if ent.ps.Load() != nil {
		return c.store.Delete(name)
	}
	return nil
}

// remove takes the named entry out of the catalog and retires it
// without a parting checkpoint (its data is going away): how Delete and
// a follower whose leader deleted the graph both drop one. It returns
// the entry, nil when there was none.
func (c *Catalog) remove(name string) *GraphEntry {
	c.mu.Lock()
	ent := c.entries[name]
	delete(c.entries, name)
	c.mu.Unlock()
	if ent != nil {
		ent.retire(true)
	}
	return ent
}

// retire closes the entry and drops every metric series labeled with
// it — gauges registered through GaugeFunc close over the entry, so
// removal is also what stops the registry from pinning its state and
// reporting a graph the catalog no longer holds.
func (ent *GraphEntry) retire(drop bool) {
	ent.close(drop)
	ent.cat.reg.RemoveLabeled("graph", ent.name)
}

// Close shuts the whole catalog down: follower tails stop first, then
// every entry drains its pending writes and (when durable) writes a
// final checkpoint.
func (c *Catalog) Close() {
	c.roleMu.Lock()
	defer c.roleMu.Unlock()
	c.stopFollowing()
	for _, e := range c.takeAll() {
		e.close(false)
	}
}

// stopFollowing cancels the tail and rescan loops and waits them out.
// Callers hold roleMu.
func (c *Catalog) stopFollowing() {
	if c.followCancel != nil {
		c.followCancel()
		c.followWG.Wait()
		c.followCancel = nil
	}
}

// takeAll empties the catalog map and returns what it held.
func (c *Catalog) takeAll() []*GraphEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	ents := make([]*GraphEntry, 0, len(c.entries))
	for _, e := range c.entries {
		ents = append(ents, e)
	}
	c.entries = make(map[string]*GraphEntry)
	return ents
}

// close shuts one entry down. Ordering is load-bearing: the batcher is
// drained FIRST, so every accepted write reaches the WAL and the session
// before any per-graph resource goes away — closing the GraphStore (or
// moving the entry to closing) ahead of the drain would fail or drop
// the final flush. drop skips the parting checkpoint (the caller is
// about to delete the directory anyway); a background checkpoint in
// flight is waited out either way, so no writer outlives the entry.
func (ent *GraphEntry) close(drop bool) {
	if b := ent.b.Load(); b != nil {
		b.close()
	}
	// Then move to closing under the entry lock: an in-flight
	// RegisterRules either finished before or observes closing.
	ent.mu.Lock()
	if ps := ent.ps.Load(); ps != nil {
		ent.awaitCheckpointLocked()
		if !drop && !ent.reload {
			// A clean shutdown checkpoints the head, so the next boot
			// recovers from the image alone instead of replaying the
			// whole tail; one a panic left behind the log is not. (A
			// fenced handle refuses this inside persist — harmless; the
			// new leader owns the log now.)
			_ = ps.Checkpoint(ent.cutLocked())
		}
		_ = ps.Close()
	}
	ent.on(evClose, nil)
	ent.mu.Unlock()
}

// Name returns the entry's catalog name.
func (ent *GraphEntry) Name() string { return ent.name }

// CurrentView returns the latest published view. It never blocks and
// never observes a partially applied batch.
func (ent *GraphEntry) CurrentView() *View {
	ent.mReads.Inc()
	return ent.view.Load()
}

// RegisterRules replaces the entry's rule set with the rules parsed
// from the DSL source, runs the seeding validation, and publishes a
// view carrying the new maintained violation set. It returns the new
// view.
func (ent *GraphEntry) RegisterRules(ctx context.Context, src string) (*View, error) {
	// Fail fast before parsing; the check under the lock is the one that
	// counts.
	if err := ent.writeErr(); err != nil {
		return nil, err
	}
	sigma, err := gedlib.ParseRules(src)
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if err := ent.writeErr(); err != nil {
		return nil, err
	}
	old, oldSrc := ent.sigma, ent.rulesSrc
	if err := ent.setRulesLocked(ctx, sigma, src); err != nil {
		return nil, err
	}
	if ps := ent.ps.Load(); ps != nil {
		if err := ps.AppendRules(ent.sess.Snapshot().SourceVersion(), src); err != nil {
			if errors.Is(err, persist.ErrFenced) {
				// A newer epoch owns the log: the registration was never
				// durable and must not be vouched for. Fence the entry
				// and roll the in-memory rules back.
				ent.persistFault(err)
				_ = ent.setRulesLocked(context.Background(), old, oldSrc)
				return nil, fmt.Errorf("%w: %v", ErrFenced, err)
			}
			// The rules ARE active in memory; only their durability
			// failed. Surface it as a flush-class error — the caller can
			// retry the registration, which is idempotent.
			return nil, fmt.Errorf("%w: rules active but not durable: %v", ErrFlush, err)
		}
	}
	return ent.view.Load(), nil
}

// Mutate enqueues ops onto the entry's write batcher and waits for the
// flush that applies them. The returned result carries the post-flush
// version/epoch and any per-op errors. A ctx expiry abandons only the
// wait: the enqueued ops are still applied by a later flush.
func (ent *GraphEntry) Mutate(ctx context.Context, ops []Op) (WriteResult, error) {
	// Fail fast in a read-only state rather than queueing ops that the
	// flush would reject anyway (the flush re-checks, so this is
	// advisory). A writable entry always has a batcher.
	if err := ent.writeErr(); err != nil {
		return WriteResult{}, err
	}
	return ent.b.Load().enqueue(ctx, ops)
}

// writeErr is the rejection a write meets in the entry's current state;
// nil when it may proceed.
func (ent *GraphEntry) writeErr() error { return ent.life.Load().row().writeErr }

// Chase runs the engine's chase under the current view's rules over a
// graph rebuilt from the view's snapshot; it takes no lock.
func (ent *GraphEntry) Chase(ctx context.Context) (*gedlib.ChaseResult, error) {
	view := ent.view.Load()
	g, err := gedlib.ImportImage(view.Snap.Image(nil))
	if err != nil {
		return nil, err
	}
	return ent.cat.eng.Chase(ctx, g, view.Rules)
}

// openLocked puts the entry on g (named by names) under sigma, parsed
// from src: one freeze into a new session, one seeding validation, its
// first view published; g is not kept, and on error nothing changes.
// Callers hold ent.mu exclusively (or have sole access while creating
// the entry).
func (ent *GraphEntry) openLocked(ctx context.Context, g *gedlib.Graph, names *nameIndex, sigma gedlib.RuleSet, src string) error {
	sess, err := ent.cat.eng.Open(ctx, g, sigma)
	if err != nil {
		return err
	}
	vs, err := sess.Violations(ctx)
	if err != nil {
		return err
	}
	ent.sess, ent.names, ent.reload = sess, names, false
	ent.useRulesLocked(sigma, src)
	ent.publishLocked(vs)
	return nil
}

// setRulesLocked installs sigma (parsed from src) in the session,
// re-seeding the maintained set, and publishes it. On error the old
// rules and view stay: later flushes must not maintain a set the caller
// was told did not take effect.
func (ent *GraphEntry) setRulesLocked(ctx context.Context, sigma gedlib.RuleSet, src string) error {
	if err := ent.sess.SetRules(ctx, sigma); err != nil {
		return err
	}
	vs, err := ent.sess.Violations(ctx)
	if err != nil { // nothing was seeded, so the rollback only recompiles
		_ = ent.sess.SetRules(context.Background(), ent.sigma)
		return err
	}
	ent.useRulesLocked(sigma, src)
	ent.publishLocked(vs)
	return nil
}

// useRulesLocked makes sigma, parsed from src, the entry's rule set and
// renders its wire text once for every view published under it.
func (ent *GraphEntry) useRulesLocked(sigma gedlib.RuleSet, src string) {
	ent.sigma, ent.rulesSrc, ent.text = sigma, src, newRuleText(sigma)
}

// publishLocked hands a new view of the session — its snapshot and the
// validator its store maintains, so publication compiles nothing — to
// the read path: epoch bump, atomic pointer swap, bounded retention of
// the predecessors. It returns the view it published.
func (ent *GraphEntry) publishLocked(vs []gedlib.Violation) *View {
	snap, val := ent.sess.Snapshot(), ent.sess.Validator()
	v := &View{
		Epoch:      ent.epoch.Add(1),
		Version:    snap.SourceVersion(),
		Snap:       snap,
		Val:        val,
		Violations: vs,
		Names:      ent.names.table(snap.NumNodes()),
		Rules:      ent.sigma,
		text:       ent.text,
	}
	ent.view.Store(v)

	ent.retainMu.Lock()
	ent.retained = append(ent.retained, v)
	if n := ent.cat.cfg.RetainViews; len(ent.retained) > n {
		ent.retained = append(ent.retained[:0:0], ent.retained[len(ent.retained)-n:]...)
	}
	ent.retainMu.Unlock()
	return v
}

// validName accepts names every /graphs/{name}/... route can address:
// the HTTP mux's {name} wildcard matches exactly one path segment, so a
// name containing '/' (or other URL-significant bytes) would create a
// tenant no request could ever reach again.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
		default:
			return false
		}
	}
	return true
}

// flushTestHook, when non-nil, runs at the top of every applyBatch,
// opTestHook after each op it resolves, and applyTestHook between its
// log and its Apply (tests inject panics and fault windows with them).
var (
	flushTestHook func(*GraphEntry)
	opTestHook    func(Op)
	applyTestHook func(*GraphEntry)
)

// flushBatch runs one merged batch through applyBatch and completes the
// requests after the view lands, so a returned write is visible to
// subsequent reads.
func (ent *GraphEntry) flushBatch(reqs []*writeReq) {
	ent.cat.flushing.Add(1)
	view, err := ent.applyBatch(reqs)
	ent.cat.flushing.Add(-1)
	for _, req := range reqs {
		if err != nil {
			req.res.Err = err
		}
		if view != nil {
			req.res.Version, req.res.Epoch = view.Version, view.Epoch
		}
		req.done <- req.res
	}
}

// applyBatch applies one merged batch, delta first: every op of every
// request is resolved into one delta, which is logged (one WAL record,
// one group-commit sync) before a single Session.Apply advances the
// snapshot and the maintained violation set by it in O(|Δ|) and one
// view is published covering the whole batch; a batch whose append or
// sync fails changes nothing in memory. It returns the view the
// requests complete against (the latest, whether or not this batch
// advanced it).
//
// The batch is panic-contained: a panicking op or rule plan fails the
// batch instead of killing the flusher goroutine and hanging every
// queued writer. The LIFO defers release the entry lock even then. A
// durable entry additionally degrades on panic (see reload).
func (ent *GraphEntry) applyBatch(reqs []*writeReq) (view *View, err error) {
	sp := ent.cat.tracer().Start(ent.name, "flush")
	ent.mu.Lock()
	defer ent.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: panic: %v", ErrFlush, p)
			if ent.ps.Load() != nil {
				ent.on(evFault, err)
			}
		}
		view = ent.view.Load()
		sp.Fail(err)
		sp.End()
	}()
	// queue_wait is the oldest request's time-in-queue, measured up to
	// the moment the flush holds the entry lock — what a writer at the
	// head of the batch actually waited before its ops started applying.
	var oldest time.Time
	for _, req := range reqs {
		if oldest.IsZero() || req.at.Before(oldest) {
			oldest = req.at
		}
	}
	if !oldest.IsZero() {
		wait := time.Since(oldest)
		ent.stQueue.Observe(wait)
		sp.StageDur(stageQueueWait, wait)
	}
	if err := ent.writeErr(); err != nil {
		return nil, err
	}
	if hook := flushTestHook; hook != nil {
		hook(ent)
	}
	snap := ent.sess.Snapshot()
	b := &batchDelta{snap: snap, names: ent.names, d: gedlib.Delta{FromVersion: snap.SourceVersion()},
		added: map[string]gedlib.NodeID{}, edges: map[gedlib.GraphEdge]struct{}{}}
	for _, req := range reqs {
		req.res.Applied = 0
		for i := range req.ops {
			if err := b.add(req.ops[i]); err != nil {
				req.res.OpErrors = append(req.res.OpErrors, OpError{Index: i, Message: err.Error()})
				continue
			}
			req.res.Applied++
			if hook := opTestHook; hook != nil {
				hook(req.ops[i])
			}
		}
	}
	sp.Stage("mutate")
	// Write-ahead: the batch's delta reaches the WAL (and, in batch
	// mode, one group-commit fsync covering every write it coalesced)
	// before the session sees it and the requests complete — a returned
	// write is durable, not just visible.
	d, ps := &b.d, ent.ps.Load()
	d.ToVersion = d.FromVersion + uint64(d.Size()) // a tick per node, edge and attribute write
	if lerr := ent.logBatchLocked(ps, d, b.wire, sp); lerr != nil {
		return nil, flushErr(lerr)
	}
	ent.reload = ps != nil // until the session holds what the log does
	if hook := applyTestHook; hook != nil {
		hook(ent)
	}
	start := time.Now()
	vs, aerr := ent.sess.Apply(context.Background(), d)
	// Apply advances the snapshot even when it fails, so the new nodes
	// are named either way; their names enter the index only now.
	ent.nameNodesLocked(d.Nodes, b.wire)
	ent.reload = false
	if aerr != nil {
		return nil, fmt.Errorf("%w: %v", ErrFlush, aerr)
	}
	applyDur := time.Since(start)
	ent.stApply.Observe(applyDur)
	sp.StageDur(stageApply, applyDur)
	pubStart := time.Now()
	v := ent.publishLocked(vs)
	pubDur := time.Since(pubStart)
	ent.stPublish.Observe(pubDur)
	sp.StageDur(stagePublish, pubDur)
	if ps != nil {
		ent.checkpointDueLocked(ps, v, sp)
	}
	return nil, nil
}

// nameNodesLocked names the new nodes the session holds ("": unnamed).
func (ent *GraphEntry) nameNodesLocked(nodes []gedlib.NodeAdd, names []string) {
	for i, n := range nodes {
		if names[i] != "" {
			ent.names.add(names[i], n.ID)
		}
	}
}

// flushErr classifies a persist failure of a flush for its requests. A
// fence is not a server fault: a newer epoch owns the log, and the
// batch, never acked durable nor applied, leaves the fenced entry
// serving its pre-batch view read-only.
func flushErr(err error) error {
	if errors.Is(err, persist.ErrFenced) {
		return fmt.Errorf("%w: %v", ErrFenced, err)
	}
	return fmt.Errorf("%w: %v", ErrFlush, err)
}

// Flush-path retry tuning: transient append errors back off 2→4→8ms
// (capped) between attempts, all while holding the entry lock — short
// enough that queued writers wait out a blip instead of failing.
const (
	flushRetryDelay    = 2 * time.Millisecond
	flushRetryMaxDelay = 10 * time.Millisecond
)

// logBatchLocked persists a flush's delta d (names: its new nodes' wire
// ids) as one delta record and one group-commit sync, in flush order
// under ent.mu. No-op for non-durable entries and for an empty d.
//
// Error policy: transient append errors (EIO, EINTR, ...) retry in
// place with capped backoff — the WAL repairs its own torn tail before
// the retried record lands. Exhausted retries and permanent errors
// (ENOSPC, EROFS) degrade the graph. A failed group-commit fsync
// degrades immediately and is never retried: the kernel may already
// have dropped the dirty pages, so a passing retry would ack a write
// that is not on disk; persist drops the record instead. Recovery from
// degraded is a probe's checkpoint (see Probe).
func (ent *GraphEntry) logBatchLocked(ps *persist.GraphStore, d *gedlib.Delta, names []string, sp *obs.Span) error {
	if ps == nil || d.Empty() { // Empty: every op was rejected
		return nil
	}
	appendStart := time.Now()
	delay := flushRetryDelay
	for attempt := 0; ; attempt++ {
		err := ps.AppendDelta(d, names)
		if err == nil {
			break
		}
		if errors.Is(err, persist.ErrFenced) || !persist.IsTransient(err) || attempt >= ent.cat.cfg.FlushRetries {
			ent.persistFault(err)
			return err
		}
		ent.mWALRetries.Inc()
		time.Sleep(delay)
		if delay *= 2; delay > flushRetryMaxDelay {
			delay = flushRetryMaxDelay
		}
	}
	appendDur := time.Since(appendStart)
	ent.stWAL.Observe(appendDur)
	sp.StageDur(stageWALAppend, appendDur)
	syncStart := time.Now()
	// The post-sync fence check is the ack gate: a deposed leader's
	// group commit fails here (persist re-reads the fence table after
	// the fsync), so the batch is never reported durable.
	if err := ps.Sync(); err != nil {
		ent.persistFault(err)
		return err
	}
	syncDur := time.Since(syncStart)
	ent.stFsync.Observe(syncDur)
	sp.StageDur(stageFsync, syncDur)
	return nil
}

// Restore re-adopts every graph persisted under the catalog's data
// directory: newest checkpoint + WAL tail replay per graph, rules
// re-registered from their persisted source, batcher started. It
// returns the restored names. Call it once, before serving traffic.
func (c *Catalog) Restore(ctx context.Context) ([]string, error) {
	if c.store == nil {
		return nil, errors.New("serve: Restore requires Config.DataDir")
	}
	names, err := c.store.Graphs()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		gs, rec, err := c.store.OpenGraph(name)
		if err != nil {
			return nil, fmt.Errorf("serve: restore %q: %w", name, err)
		}
		// A rebooting leader that may have been deposed while down
		// asserts the epoch it last held; if a successor took over, the
		// graph comes up fenced (read-only) instead of discovering it on
		// the first write.
		var fenceErr error
		if c.cfg.AssumeEpoch != nil {
			if aerr := gs.AssumeEpoch(*c.cfg.AssumeEpoch); aerr != nil {
				if !errors.Is(aerr, persist.ErrFenced) {
					_ = gs.Close()
					return nil, fmt.Errorf("serve: restore %q: %w", name, aerr)
				}
				fenceErr = aerr
			}
		}
		ent := c.newEntry(name, stLeaderOK)
		if err := ent.loadLocked(ctx, rec.State); err != nil {
			_ = gs.Close()
			return nil, fmt.Errorf("serve: restore %q: %w", name, err)
		}
		ent.ps.Store(gs)
		if fenceErr != nil {
			ent.persistFault(fenceErr)
		}
		ent.startBatcher()
		c.put(ent)
	}
	return names, nil
}

// Follow turns the catalog into a read-only replica of the store at
// Config.DataDir (another process's leader directory): every persisted
// graph is recovered and then kept fresh by tailing its WAL; graphs
// that appear later are picked up by a periodic rescan. Writes against
// a follower fail with ErrReadOnly. The tails stop when ctx is
// canceled or the catalog closes.
func (c *Catalog) Follow(ctx context.Context) error {
	if c.store == nil {
		return errors.New("serve: Follow requires Config.DataDir")
	}
	c.follower.Store(true)
	c.followCtx, c.followCancel = context.WithCancel(ctx)
	names, err := c.store.Graphs()
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := c.followGraph(name); err != nil {
			return fmt.Errorf("serve: follow %q: %w", name, err)
		}
	}
	c.followWG.Add(1)
	go c.rescanLoop()
	return nil
}

// followGraph recovers one graph read-only and starts its tail loop.
func (c *Catalog) followGraph(name string) error {
	rec, err := c.store.Recover(name)
	if err != nil {
		return err
	}
	ent := c.newEntry(name, stFollowerOK)
	if err := ent.loadLocked(c.followCtx, rec.State); err != nil {
		return err
	}
	c.put(ent)
	c.followWG.Add(1)
	go c.followLoop(ent, rec)
	return nil
}

// newEntry builds an entry in state s with its metrics registered. The
// caller gives it a graph (and, to write, a durability handle and a
// batcher) before publishing it to the map.
func (c *Catalog) newEntry(name string, s lifeState) *GraphEntry {
	ent := &GraphEntry{name: name, cat: c, probeStop: make(chan struct{})}
	ent.life.Store(&lifecycle{state: s, since: time.Now()})
	ent.initMetrics()
	if s == stFollowerOK {
		ent.initFollowerMetrics()
	}
	return ent
}

// loadLocked puts the entry on recovered durable state — rules
// re-parsed from their source, name table from the dense column — and
// opens its session there.
func (ent *GraphEntry) loadLocked(ctx context.Context, st persist.State) error {
	sigma := gedlib.RuleSet{}
	if st.Rules != "" {
		var err error
		if sigma, err = parseStoredRules(st.Rules); err != nil {
			return fmt.Errorf("persisted rules: %w", err)
		}
	}
	return ent.openLocked(ctx, st.Graph, nameIndexFromDense(st.Names), sigma, st.Rules)
}

// parseStoredRules re-reads a rule source from the data directory.
// RegisterRules stores only sources ParseRules accepts, so a stored
// source it rejects may predate Go-quoted constants, when a backslash
// stood the next character for itself ("\d" read d, "a\tb" atb). Such
// a source is read that way again, so the graph restores with the
// rules it served; it cannot be registered again as it is.
func parseStoredRules(src string) (gedlib.RuleSet, error) {
	sigma, err := gedlib.ParseRules(src)
	if err != nil {
		if old, oerr := gedlib.ParseRules(unescapeLegacy(src)); oerr == nil {
			return old, nil
		}
	}
	return sigma, err
}

// unescapeLegacy rewrites the old string reading in Go quoting: it
// drops every backslash but the escapes \" and \\, which both readings
// share. Outside quoted constants a backslash can stand only in a
// comment, where dropping it changes nothing.
func unescapeLegacy(src string) string {
	var b strings.Builder
	for i := 0; i < len(src); i++ {
		if src[i] == '\\' && i+1 < len(src) {
			if c := src[i+1]; c != '"' && c != '\\' {
				continue
			}
			b.WriteByte(src[i])
			i++
		}
		b.WriteByte(src[i])
	}
	return b.String()
}

// followerDegradeAfter is how many consecutive tail/recover failures a
// replica entry tolerates before it turns follower-lagging (a single
// ErrLagBehind with an immediate re-recovery is normal operation, not a
// fault).
const followerDegradeAfter = 3

// tailAdvanced records follower progress, clearing any failure streak.
func (ent *GraphEntry) tailAdvanced() {
	ent.folFailures.Store(0)
	ent.on(evTailOK, nil)
}

// followLoop tails one graph's WAL forever, applying each record to the
// replica entry. A tail failure that is not a cancellation (lag beyond
// the leader's compaction, a corrupt segment, a record the tail read
// that the leader then dropped as unsynced) re-recovers from the
// newest checkpoint and resumes — the replica jumps forward, it never
// serves stale state silently. Repeated failures back off with jitter
// (reset on success) and, past a streak, make the replica lagging. A
// graph the leader deleted (persist.ErrNotFound from the tail or the
// re-recovery) is dropped from the catalog.
func (c *Catalog) followLoop(ent *GraphEntry, rec *persist.Recovery) {
	defer c.followWG.Done()
	ctx := c.followCtx
	bo := newBackoff(50*time.Millisecond, 2*time.Second)
	err := c.store.Tail(ctx, ent.name, rec, c.cfg.FollowPoll, ent.applyTailRecord)
	for retry := false; ; {
		switch {
		case ctx.Err() != nil, errors.Is(err, ErrClosed):
			return
		case errors.Is(err, persist.ErrNotFound):
			c.remove(ent.name)
			return
		}
		// A streak of failures makes the replica lagging, so /healthz
		// stops vouching for its freshness.
		if ent.folFailures.Add(1) >= followerDegradeAfter {
			ent.on(evTailFail, err)
		}
		if retry {
			select { // mid-compaction races and real faults both retry
			case <-ctx.Done():
				return
			case <-time.After(bo.next()):
			}
		}
		rec, err = c.store.Recover(ent.name)
		if err == nil {
			err = ent.resetTo(rec.State)
		}
		if retry = err != nil; retry {
			continue
		}
		bo.reset()
		ent.tailAdvanced()
		err = c.store.Tail(ctx, ent.name, rec, c.cfg.FollowPoll, ent.applyTailRecord)
	}
}

// rescanLoop watches the store for graphs created after Follow started,
// every Config.RescanInterval (jittered ±25% so a fleet of followers
// spreads its scans). Scan failures back off exponentially (with
// jitter) instead of hammering a failing store every interval.
func (c *Catalog) rescanLoop() {
	defer c.followWG.Done()
	ctx := c.followCtx
	base := c.cfg.RescanInterval
	maxDelay := 30 * time.Second
	if base > maxDelay {
		maxDelay = base
	}
	bo := newBackoff(base, maxDelay)
	delay := jitter(base)
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		names, err := c.store.Graphs()
		if err != nil {
			delay = bo.next()
			continue
		}
		ok := true
		for _, name := range names {
			c.mu.RLock()
			_, known := c.entries[name]
			c.mu.RUnlock()
			if !known {
				if err := c.followGraph(name); err != nil {
					ok = false // a half-created dir retries next scan
				}
			}
		}
		if ok {
			bo.reset()
			delay = jitter(base)
		} else {
			delay = bo.next()
		}
	}
}

// applyTailRecord applies one streamed WAL record to a replica entry
// and publishes the advanced view: a delta through Session.Apply, any
// other record (a rules registration, an epoch bump) by republishing
// Session.Violations.
func (ent *GraphEntry) applyTailRecord(tr persist.TailRecord) error {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.closing() {
		return ErrClosed
	}
	ctx := context.Background()
	if tr.Rules != nil {
		sigma, err := parseStoredRules(*tr.Rules)
		if err != nil {
			return err
		}
		if err := ent.sess.SetRules(ctx, sigma); err != nil {
			return err
		}
		ent.useRulesLocked(sigma, *tr.Rules)
	}
	var vs []gedlib.Violation
	var err error
	if tr.Delta != nil {
		vs, err = ent.sess.Apply(ctx, tr.Delta)
		ent.nameNodesLocked(tr.Delta.Nodes, tr.Names)
	} else {
		vs, err = ent.sess.Violations(ctx)
	}
	if err != nil {
		return err
	}
	ent.publishLocked(vs)
	ent.mFolRecords.Inc()
	ent.folLag.Store(time.Since(tr.AppendedAt).Nanoseconds())
	ent.tailAdvanced()
	return nil
}

// resetTo swaps a replica entry onto freshly recovered state (used
// after the tail lost its log position).
func (ent *GraphEntry) resetTo(st persist.State) error {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.closing() {
		return ErrClosed
	}
	return ent.loadLocked(context.Background(), st)
}

// closing reports whether the entry has closed; stable once true, and
// moved to only under ent.mu.
func (ent *GraphEntry) closing() bool { return ent.life.Load().state == stClosing }
