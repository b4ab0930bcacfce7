package serve

import (
	"gedlib"
	"gedlib/internal/obs"
)

// Observability wiring. The catalog owns one metrics registry for its
// whole lifetime and one Observer sharing it: the serving layer's own
// counters (the numbers behind /statsz: flushes, reads, admission,
// health) and the pipeline instrumentation — engine/persist/matcher
// metrics, trace spans, per-stage flush histograms — all report into
// that registry. /metricsz renders it; /tracez serves the observer's
// recent-span ring.

// Observer exposes the catalog's observer.
func (c *Catalog) Observer() *gedlib.Observer { return c.obs }

// tracer is the span sink.
func (c *Catalog) tracer() *obs.Tracer { return c.obs.Tracer() }

// Flush pipeline stage names, in execution order. Each flush records
// one observation per stage into ged_serve_flush_stage_seconds and the
// same timings onto its trace span.
const (
	stageQueueWait = "queue_wait"
	stageWALAppend = "wal_append"
	stageFsync     = "fsync"
	stageApply     = "apply"
	stagePublish   = "publish"
	// stageRotate and stageInstall, span only, are the WAL cut a flush
	// makes when a checkpoint is due and the rename that puts a finished
	// background checkpoint in place (see checkpoint.go).
	stageRotate  = "rotate"
	stageInstall = "install_checkpoint"
)

// initMetrics resolves the entry's serving counters and per-stage flush
// histograms from the catalog registry. Called once, before the entry
// is published to the catalog map.
func (ent *GraphEntry) initMetrics() {
	reg := ent.cat.reg
	n := ent.name
	ent.mReads = reg.Counter("ged_serve_reads_total",
		"published views loaded by the read path", "graph", n)
	ent.mWALRetries = reg.Counter("ged_wal_retries_total",
		"transient WAL appends retried inside flushes", "graph", n)
	ent.mProbes = reg.Counter("ged_serve_probes_total",
		"recovery probes attempted on a degraded graph", "graph", n)
	ent.mRecoveries = reg.Counter("ged_serve_recovered_total",
		"degraded-to-ok health transitions", "graph", n)
	ent.mDegraded = reg.Counter("ged_serve_degraded_total",
		"ok-to-degraded health transitions", "graph", n)
	ent.mFenced = reg.Counter("ged_serve_fenced_total",
		"transitions into fenced (deposed-leader) state", "graph", n)
	ent.mFencedAppends = reg.Counter("ged_fenced_appends_total",
		"WAL appends and syncs refused by the leadership-epoch fence", "graph", n)
	reg.GaugeFunc("ged_serve_graph_health",
		"per-graph serving health: 0 ok, 1 degraded, 2 readonly, 3 fenced, 4 closed",
		func() float64 { return ent.life.Load().row().healthGauge }, "graph", n)
	reg.GaugeFunc("ged_serve_role",
		"per-graph role: 0 leader, 1 follower, 2 fenced, 3 closed",
		func() float64 { return ent.life.Load().row().roleGauge }, "graph", n)
	reg.GaugeFunc("ged_leader_epoch",
		"leadership epoch the graph's WAL handle writes under",
		func() float64 { return float64(ent.writeEpoch()) }, "graph", n)
	reg.GaugeFunc("ged_checkpoint_inflight",
		"1 while a background checkpoint write is in flight",
		func() float64 {
			if ent.ckptBusy.Load() {
				return 1
			}
			return 0
		}, "graph", n)
	reg.GaugeFunc("ged_checkpoint_lag_ops",
		"logical ops logged since the newest durable checkpoint: what a crash now would replay",
		func() float64 {
			if ps := ent.ps.Load(); ps != nil {
				return float64(ps.Stats().OpsSinceCheckpoint)
			}
			return 0
		}, "graph", n)

	const name, help = "ged_serve_flush_stage_seconds", "per-stage duration of the write flush pipeline"
	ent.stQueue = reg.Histogram(name, help, "graph", n, "stage", stageQueueWait)
	ent.stWAL = reg.Histogram(name, help, "graph", n, "stage", stageWALAppend)
	ent.stFsync = reg.Histogram(name, help, "graph", n, "stage", stageFsync)
	ent.stApply = reg.Histogram(name, help, "graph", n, "stage", stageApply)
	ent.stPublish = reg.Histogram(name, help, "graph", n, "stage", stagePublish)
}

// initFollowerMetrics adds the replication series a follower entry
// maintains; leaders never expose them (a promotion drops them through
// dropFollowerMetrics). Called before the tail loop starts.
func (ent *GraphEntry) initFollowerMetrics() {
	reg := ent.cat.reg
	ent.mFolRecords = reg.Counter("ged_follower_records_total",
		"WAL records applied by this replica", "graph", ent.name)
	reg.GaugeFunc("ged_follower_lag_seconds",
		"staleness of the last applied record (now minus its append time)",
		func() float64 { return float64(ent.folLag.Load()) / 1e9 },
		"graph", ent.name)
}

// dropFollowerMetrics retires the follower-only series of a promoted
// entry.
func (ent *GraphEntry) dropFollowerMetrics() {
	ent.cat.reg.RemoveFamilyLabeled("ged_follower_records_total", "graph", ent.name)
	ent.cat.reg.RemoveFamilyLabeled("ged_follower_lag_seconds", "graph", ent.name)
}

// writeEpoch is the leadership epoch the entry's WAL handle writes
// under; 0 without one (in-memory, or a follower).
func (ent *GraphEntry) writeEpoch() uint64 {
	if ps := ent.ps.Load(); ps != nil {
		return ps.Epoch()
	}
	return 0
}
