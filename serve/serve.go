// Package serve is the multi-tenant serving subsystem over the gedlib
// engine: a long-running catalog of named property graphs, each with a
// registered rule set, a perpetually maintained violation set, and an
// HTTP+JSON API for mutating the graphs and querying dependency state
// under heavy concurrent traffic.
//
// The design separates a lock-free read path from a coalescing write
// path:
//
//   - Reads (violation listings, targeted re-validation, stats) run
//     against an immutable View — the latest published (snapshot,
//     prepared validator, violation set, name table) — loaded from an
//     atomic pointer. Readers never take the graph lock and never block
//     writers; an in-flight reader keeps working against the view it
//     loaded even as successors land (its own reference keeps the view
//     alive). A small bounded history of recent views is additionally
//     retained for observability — delta-advanced snapshots share
//     their storage copy-on-write, so the history costs O(recent Δs),
//     not full copies.
//   - Writes enqueue onto a per-graph coalescing batcher: a bounded
//     queue flushed when it reaches FlushOps operations or when
//     MaxDelay elapses, whichever is first. One flush resolves the
//     merged batch against the published snapshot into one delta, logs
//     it, and hands it to the graph's Session in a single Apply, so the
//     snapshot and the maintained violation set advance in O(|Δ|) once
//     per batch rather than once per request. A full queue
//     pushes back (ErrQueueFull → HTTP 429) instead of buffering
//     unboundedly.
//
// Consistency model: a write is durable and visible to every subsequent
// read once its request returns — the mutation call waits for the flush
// that contains it. Reads see the state as of the last flushed batch;
// they are never dirty (a view is only published after Session.Apply
// committed the whole, logged batch) and never torn (views are
// immutable). A write whose flush fails is never visible.
//
// Lifecycle: each graph is in one state — leader-ok, leader-degraded
// (its persist layer failed; a heal probe re-anchors it), follower-ok
// or follower-lagging (a replica tailing the leader's WAL), fenced (a
// deposed leader: a promoted follower owns the log; sticky) or closing.
// Every state but leader-ok keeps serving reads from the last published
// view and rejects writes. One transition table (health.go) moves the
// state, and /healthz, the stats, the gauges, write rejections and
// probes all read it. See the README's "Graph lifecycle" table and its
// "Failure model" and "Failover & roles" sections.
//
// Command gedserve is a thin daemon over this package; benchmark/'s
// serve_read_mostly and serve_ingest workloads drive it over HTTP, and
// TestChaosSoak / TestFailoverSoak soak it under injected disk faults
// and leader successions.
package serve

import (
	"errors"
	"time"

	"gedlib"
	"gedlib/persist"
)

// Errors surfaced by the catalog and batcher; the HTTP layer maps them
// to status codes (404, 409, 429, 503).
var (
	ErrNotFound  = errors.New("serve: no such graph")
	ErrExists    = errors.New("serve: graph already exists")
	ErrQueueFull = errors.New("serve: write queue full")
	// ErrTooManyOps rejects a single write request larger than the
	// whole queue bound — unlike ErrQueueFull it can never succeed on
	// retry (HTTP 413, not 429).
	ErrTooManyOps = errors.New("serve: request exceeds the write queue bound")
	ErrClosed     = errors.New("serve: graph closed")
	// ErrFlush wraps a server-side failure of the flush that carried a
	// write (HTTP 500 — the fault is the server's, not the request's).
	ErrFlush = errors.New("serve: flush failed")
	// ErrReadOnly rejects writes against a follower catalog — a replica
	// tailing a leader's WAL accepts reads only (HTTP 403).
	ErrReadOnly = errors.New("serve: graph is read-only (follower)")
	// ErrDegraded rejects writes against a graph whose persist layer is
	// permanently failing: the last published view keeps serving reads,
	// writes get 503 + Retry-After until the disk heals (auto-probe) or
	// an operator re-enables the graph (POST /graphs/{name}/enable).
	ErrDegraded = errors.New("serve: graph degraded (persist failure); serving reads only")
	// ErrFenced rejects writes against a deposed leader's graph: a newer
	// leadership epoch owns the WAL (a follower was promoted). Reads
	// keep serving the last view; writes get 503 + Retry-After. Unlike
	// ErrDegraded this is sticky — no probe can heal it; the process
	// must reboot as a follower of the new epoch (POST /demote).
	ErrFenced = errors.New("serve: graph fenced (a newer leadership epoch owns the log); serving reads only")
	// ErrNotFollower rejects a promotion of a catalog that has no
	// follower graphs to promote (HTTP 409).
	ErrNotFollower = errors.New("serve: catalog has no follower graphs to promote")
)

// SpanData is one completed traced operation, as delivered to
// Config.OnSlowOp and served by /tracez.
type SpanData = gedlib.SpanData

// Config tunes a Server. The zero value selects every default.
type Config struct {
	// Workers is the engine's validation parallelism (WithWorkers).
	Workers int
	// ChaseDepth bounds chase requests (WithChaseDepth); 0 = unbounded.
	ChaseDepth int

	// FlushOps flushes a graph's write queue once this many operations
	// are pending. Default 128.
	FlushOps int
	// MaxDelay flushes a non-empty write queue after this long even if
	// FlushOps was not reached. Default 2ms.
	MaxDelay time.Duration
	// MaxQueueOps bounds a graph's pending write queue; an enqueue that
	// would exceed it fails with ErrQueueFull. Default 4096.
	MaxQueueOps int

	// MaxInFlight bounds concurrently admitted HTTP requests; excess
	// requests are rejected with 503 rather than queued. Default 256.
	MaxInFlight int
	// RequestTimeout bounds each admitted request's context. Default 30s.
	RequestTimeout time.Duration

	// RetainViews is how many recently published views each graph keeps
	// referenced beyond the latest (an observability history; readers
	// keep their own views alive regardless). Default 4.
	RetainViews int

	// DataDir, when non-empty, makes the catalog durable: every graph
	// gets a WAL + checkpoint directory under it (package gedlib/persist).
	// Empty keeps the catalog purely in-memory.
	DataDir string
	// Fsync is the WAL sync policy: "batch" (default — one fsync per
	// coalesced flush), "always", or "off".
	Fsync string
	// CheckpointEvery is how many logical ops accumulate in a graph's
	// WAL before the next flush cuts the log for a checkpoint, which a
	// background writer then writes off the write path. 0 selects the
	// persist default (4096).
	CheckpointEvery int
	// RetainCheckpoints is how many checkpoints (and their WAL segments)
	// survive compaction; more retention gives lagging followers more
	// slack. 0 selects the persist default (2).
	RetainCheckpoints int
	// FollowPoll is a follower catalog's WAL poll interval. 0 selects
	// the persist default (25ms).
	FollowPoll time.Duration
	// RescanInterval is how often a follower catalog rescans the store
	// for graphs created after it started following. Each sleep is
	// jittered ±25% so a fleet of followers doesn't rescan in lockstep.
	// Default 1s.
	RescanInterval time.Duration
	// AssumeEpoch, when non-nil, asserts the leadership epoch a
	// restoring leader believes it owns. If the on-disk epoch has moved
	// past it (a follower was promoted while this leader was down), the
	// affected graphs come up fenced — read-only — instead of failing
	// on their first write. nil trusts the recovered on-disk epoch.
	AssumeEpoch *uint64

	// FlushRetries is how many times a flush retries a transient WAL
	// append error (capped exponential backoff, in place) before the
	// graph degrades. Default 3.
	FlushRetries int
	// ProbeInterval is the base delay of a degraded graph's auto-probe
	// recovery loop; probes back off exponentially (jittered, capped at
	// 16x) while the disk stays broken. Default 250ms.
	ProbeInterval time.Duration
	// FS overrides the filesystem the persist layer goes through —
	// fault injection (gedserve -fault) and tests.
	// nil selects the OS.
	FS persist.FS

	// SlowOp, when > 0, is the slow-operation threshold: every traced
	// operation (flushes, and anything else the observer spans) at least
	// this slow is handed to OnSlowOp synchronously. 0 disables the
	// slow-op log.
	SlowOp time.Duration
	// OnSlowOp receives the spans meeting SlowOp (gedserve logs them).
	// Ignored when SlowOp is 0.
	OnSlowOp func(*gedlib.SpanData)
}

// withDefaults fills in the documented defaults.
func (c Config) withDefaults() Config {
	if c.FlushOps <= 0 {
		c.FlushOps = 128
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.MaxQueueOps <= 0 {
		c.MaxQueueOps = 4096
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetainViews <= 0 {
		c.RetainViews = 4
	}
	if c.FlushRetries <= 0 {
		c.FlushRetries = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.RescanInterval <= 0 {
		c.RescanInterval = time.Second
	}
	return c
}

// engine builds the configured engine, reporting into o.
func (c Config) engine(o *gedlib.Observer) *gedlib.Engine {
	opts := []gedlib.Option{gedlib.WithObserver(o)}
	if c.Workers != 0 {
		opts = append(opts, gedlib.WithWorkers(c.Workers))
	}
	if c.ChaseDepth != 0 {
		opts = append(opts, gedlib.WithChaseDepth(c.ChaseDepth))
	}
	return gedlib.New(opts...)
}
