package serve

import "time"

// EntryStats is one graph's serving statistics, as reported by
// GET /graphs/{name}/stats and aggregated under /statsz.
type EntryStats struct {
	Name string `json:"name"`

	// Graph state as of the latest published view.
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Version    uint64 `json:"version"`
	Epoch      uint64 `json:"epoch"`
	Rules      int    `json:"rules"`
	Violations int    `json:"violations"`

	// Read path.
	ReadsServed   uint64 `json:"reads_served"`
	RetainedViews int    `json:"retained_views"`

	// Write path: coalescing visibility. AvgBatchOps > 1 means flushes
	// are merging concurrent writes.
	QueueOps       int     `json:"queue_ops"`
	Flushes        uint64  `json:"flushes"`
	FlushedOps     uint64  `json:"flushed_ops"`
	FlushedReqs    uint64  `json:"flushed_reqs"`
	RejectedWrites uint64  `json:"rejected_writes"`
	MaxBatchOps    uint64  `json:"max_batch_ops"`
	AvgBatchOps    float64 `json:"avg_batch_ops"`
	AvgBatchReqs   float64 `json:"avg_batch_reqs"`

	// Durability (set when the catalog has a data directory).
	// CheckpointAgeOps is how many logical ops the WAL tail holds beyond
	// the newest checkpoint — the replay cost of a crash right now.
	Durable           bool   `json:"durable,omitempty"`
	WALBytes          int64  `json:"wal_bytes,omitempty"`
	WALRecords        uint64 `json:"wal_records,omitempty"`
	LastFsyncNanos    int64  `json:"last_fsync_ns,omitempty"`
	CheckpointVersion uint64 `json:"checkpoint_version,omitempty"`
	CheckpointAgeOps  int    `json:"checkpoint_age_ops,omitempty"`

	// Replication (set on follower entries). FollowerLagNanos is the
	// staleness of the last applied record: now minus its append time;
	// FollowerFailures is the current consecutive tail-failure streak
	// (reset to 0 on every applied record).
	Follower         bool   `json:"follower,omitempty"`
	FollowerRecords  uint64 `json:"follower_records,omitempty"`
	FollowerLagNanos int64  `json:"follower_lag_ns,omitempty"`
	FollowerFailures uint64 `json:"follower_failures,omitempty"`

	// Health and Role are the lifecycle state's (the README's "Graph
	// lifecycle" table); HealthError is the cause while degraded or
	// fenced. WALRetries counts transient WAL appends retried inside
	// flushes, Probes the recovery attempts while degraded, Recoveries
	// the degraded→ok transitions.
	Health           string `json:"health"`
	HealthError      string `json:"health_error,omitempty"`
	DegradedForNanos int64  `json:"degraded_for_ns,omitempty"`
	WALRetries       uint64 `json:"wal_retries,omitempty"`
	Probes           uint64 `json:"probes,omitempty"`
	Recoveries       uint64 `json:"recoveries,omitempty"`

	// LeaderEpoch is the leadership epoch the graph's WAL handle writes
	// under; PromotionNanos the wall time of the promotion that made
	// this entry a leader; FencedAppends the appends/syncs the epoch
	// fence refused.
	Role           string `json:"role,omitempty"`
	LeaderEpoch    uint64 `json:"leader_epoch,omitempty"`
	PromotionNanos int64  `json:"promotion_ns,omitempty"`
	FencedAppends  uint64 `json:"fenced_appends,omitempty"`
}

// ServerStats is the /statsz payload.
type ServerStats struct {
	Graphs int `json:"graphs"`

	// Admission control.
	InFlight         int    `json:"in_flight"`
	Admitted         uint64 `json:"admitted"`
	RejectedRequests uint64 `json:"rejected_requests"`

	// Durability: the data directory backing the catalog ("" when
	// in-memory) and whether this process is a read-only follower of it.
	// Role is the catalog-level role ("leader" or "follower"; per-graph
	// fenced state is in the entries).
	DataDir  string `json:"data_dir,omitempty"`
	Follower bool   `json:"follower,omitempty"`
	Role     string `json:"role,omitempty"`

	Entries []EntryStats `json:"entries"`
}

// Stats aggregates every entry's statistics.
func (c *Catalog) Stats() []EntryStats {
	names := c.Names()
	out := make([]EntryStats, 0, len(names))
	for _, n := range names {
		if ent, err := c.Get(n); err == nil {
			out = append(out, ent.Stats())
		}
	}
	return out
}

// Stats reports the entry's serving statistics.
func (ent *GraphEntry) Stats() EntryStats {
	view := ent.view.Load()
	ent.retainMu.Lock()
	retained := len(ent.retained)
	ent.retainMu.Unlock()
	var s EntryStats
	if b := ent.b.Load(); b != nil {
		s = b.stats()
	}
	s.Name = ent.name
	if psh := ent.ps.Load(); psh != nil {
		ps := psh.Stats()
		s.Durable = true
		s.WALBytes = ps.WALBytes
		s.WALRecords = ps.WALRecords
		s.LastFsyncNanos = ps.LastSync.Nanoseconds()
		s.CheckpointVersion = ps.CheckpointVersion
		s.CheckpointAgeOps = ps.OpsSinceCheckpoint
		s.LeaderEpoch = ps.Epoch
	}
	lc := ent.life.Load()
	row := lc.row()
	s.Health, s.Role = row.health, row.role
	if lc.cause != nil {
		s.HealthError = lc.cause.Error()
	}
	if row.health == "degraded" {
		s.DegradedForNanos = time.Since(lc.since).Nanoseconds()
	}
	if row.role == "follower" {
		s.Follower = true
		s.FollowerRecords = ent.mFolRecords.Value()
		s.FollowerLagNanos = ent.folLag.Load()
		s.FollowerFailures = ent.folFailures.Load()
	}
	s.PromotionNanos = ent.promotionNanos.Load()
	s.FencedAppends = ent.mFencedAppends.Value()
	s.WALRetries = ent.mWALRetries.Value()
	s.Probes = ent.mProbes.Value()
	s.Recoveries = ent.mRecoveries.Value()
	s.ReadsServed = ent.mReads.Value()
	s.RetainedViews = retained
	if view != nil {
		s.Epoch = view.Epoch
		s.Version = view.Version
		s.Nodes = view.Snap.NumNodes()
		s.Edges = view.Snap.NumEdges()
		s.Rules = len(view.Rules)
		s.Violations = len(view.Violations)
	}
	return s
}
