package main

// The names fixed here are what later issues cite. BENCHMARK.json at the
// repository root repeats the workloads, the end-to-end metrics every
// workload reports, and the per-layer metrics; bench_test.go keeps the
// two in step.

const (
	wValidate   = "validate_cyclic"
	wApply      = "apply_stream"
	wChase      = "chase_keys"
	wReadMostly = "serve_read_mostly"
	wIngest     = "serve_ingest"
)

type workloadDef struct {
	Name string
	Why  string // one line, as in BENCHMARK.json
	run  func(*run) error
}

var workloads = []workloadDef{
	{wValidate, "full match enumeration on cyclic patterns is nearly all the work; graph, persist and serve do nothing", runValidateCyclic},
	{wApply, "per-delta maintenance across 64 rules: pivoted tiny enumerations, snapshot advance, store recheck", runApplyStream},
	{wChase, "the paper's chase on recursive keys: equivalence classes over many rounds of small matches", runChaseKeys},
	{wReadMostly, "98% reads over HTTP: view load, slice, encode; writes are tiny and wait out the batcher's delay", runServeReadMostly},
	{wIngest, "128-op write batches: decode, WAL, fsync, Apply, publish, checkpoints; the same layers used the other way", runServeIngest},
}

func workloadNamed(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the old median it may worsen by
	// On lists the workloads that report the metric; nil means all.
	On  []string
	Doc string
}

func (m metric) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	srv   = []string{wReadMostly, wIngest}
	muted = []string{wApply, wReadMostly, wIngest}            // workloads that mutate graphs
	match = []string{wValidate, wApply, wReadMostly, wIngest} // workloads whose matcher work the registry counts
)

// endToEnd are the 13 end-to-end metrics, measured with the benchmark's
// spans off. Those reported by every workload and never zero are the
// ones BENCHMARK.json lists (see inContract).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, nil, "workload start to first measured op: generate, load, register, first freeze and plan compile, warm-up; median of three set-ups"},
	{"ops_per_s", "1/s", "higher", 0.15, nil, "correct ops (library) or 200-OK requests (serve) per second of measured wall"},
	{"op_p50_ms", "ms", "lower", 0.20, nil, "median time of one op; on serve workloads, of one request of any class"},
	{"op_p95_ms", "ms", "lower", 0.25, nil, "95th percentile of the same"},
	{"read_p50_ms", "ms", "lower", 0.20, srv, "median read request, client side"},
	{"write_p50_ms", "ms", "lower", 0.20, srv, "median mutate request, client side (returns after the flush that carries it)"},
	{"read_p95_ms", "ms", "lower", 0.25, []string{wReadMostly}, "95th percentile read"},
	{"write_p95_ms", "ms", "lower", 0.25, []string{wReadMostly}, "95th percentile write; on serve_ingest it sits on the checkpoint cliff, see serve.write_p99_ms"},
	{"failed_frac", "ratio", "lower", 0, nil, "failed, refused or wrong-answer ops over attempted; any increase is a regression"},
	{"alloc_kb_per_op", "KB", "lower", 0.10, nil, "MemStats.TotalAlloc delta over ops, process-wide"},
	{"allocs_per_op", "count", "lower", 0.05, nil, "MemStats.Mallocs delta over ops, process-wide"},
	{"live_heap_mb", "MB", "lower", 0.20, nil, "HeapAlloc after two GCs at the end of the measured phase, engine or server still open"},
	{"recover_s", "s", "lower", 0.25, []string{wIngest}, "median of 5: NewServer+Restore on a copy of the data dir taken after the last ack and before Close"},
}

// inContract reports whether m is one of the end-to-end metrics the
// driver's contract can carry: every workload reports it and it is never
// zero. failed_frac travels as the result line's failed/attempted.
func (m metric) inContract() bool { return m.On == nil && m.Name != "failed_frac" }

// perLayer are the 70 per-layer metrics of the traced run. A metric a
// workload does not exercise reads 0 there: the layer did no work.
var perLayer = []metric{
	{"gedio.load_graph_ms", "ms", "lower", 0, nil, "LoadGraph of one generated graph"},
	{"gedio.parse_rules_us", "us", "lower", 0, nil, "ParseRules of the workload's rule text"},
	{"graph.freeze_ms", "ms", "lower", 0, nil, "Graph.Freeze on the oracle path"},
	{"graph.import_image_ms", "ms", "lower", 0, srv, "ImportImage of the twin graph's image"},
	{"graph.mutate_us", "us", "lower", 0, muted, "one public Graph mutation call"},
	{"graph.delta_since_us", "us", "lower", 0, []string{wApply}, "Graph.DeltaSince of one op's mutations"},
	{"graph.snapshot_apply_us", "us", "lower", 0, []string{wApply}, "Snapshot.Apply of that delta"},
	{"graph.export_image_ms", "ms", "lower", 0, srv, "ExportImage of the twin graph, what a checkpoint pays"},
	{"pattern.candidates_per_op", "count", "lower", 0, match, "candidate nodes examined, per op"},
	{"pattern.intersect_steps_per_op", "count", "lower", 0, match, "posting-list runs fed to intersection, per op"},
	{"pattern.probe_steps_per_op", "count", "lower", 0, match, "per-candidate consistency probes, per op"},
	{"pattern.bindings_per_op", "count", "lower", 0, match, "complete bindings, per op"},
	{"pattern.candidates_per_binding", "ratio", "lower", 0, match, "candidates over bindings: the matcher's waste ratio"},
	{"pattern.ns_per_binding", "ns", "lower", 0, match, "time in matcher-driving calls over bindings"},
	{"reason.plan_compile_ms", "ms", "lower", 0, nil, "NewSnapshotValidator on the oracle path"},
	{"reason.run_ms", "ms", "lower", 0, nil, "Validator.RunCtx on the oracle path"},
	{"reason.violations_per_op", "count", "lower", 0, match, "violations an op or read returns"},
	{"reason.rebase_us", "us", "lower", 0, []string{wApply}, "Validator.Rebase onto the advanced snapshot"},
	{"reason.touching_us", "us", "lower", 0, []string{wApply, wReadMostly}, "Validator.TouchingCtx on the touched nodes"},
	{"engine.validate_ms", "ms", "lower", 0, []string{wValidate}, "warm Engine.Validate"},
	{"engine.validate_self_ms", "ms", "lower", 0, []string{wValidate}, "validate minus reason.run_ms: cache lookup, canonical sort"},
	{"engine.apply_us", "us", "lower", 0, muted, "Engine.Apply; on serve workloads the flush span's apply stage"},
	{"engine.apply_self_us", "us", "lower", 0, []string{wApply}, "apply minus advance, rebase and touching: store recheck and merge"},
	{"engine.store_rechecks_per_op", "count", "lower", 0, muted, "stored violations re-checked per Apply"},
	{"engine.store_fresh_per_op", "count", "lower", 0, muted, "fresh violations admitted per Apply"},
	{"engine.store_drops_per_op", "count", "lower", 0, muted, "violations dropped as repaired per Apply"},
	{"engine.snapshot_advance_frac", "ratio", "higher", 0, muted, "advances over advances plus re-freezes; 1 when the window counted neither"},
	{"chase.run_ms", "ms", "lower", 0, []string{wChase}, "Engine.Chase"},
	{"chase.rounds_per_op", "count", "lower", 0, []string{wChase}, "fixpoint rounds per chase"},
	{"chase.steps_per_op", "count", "lower", 0, []string{wChase}, "chase steps per chase"},
	{"chase.us_per_step", "us", "lower", 0, []string{wChase}, "chase time over steps"},
	{"chase.materialize_ms", "ms", "lower", 0, []string{wChase}, "ChaseResult.Materialize"},
	{"http.client_read_us", "us", "lower", 0, srv, "median read, client side, traced run"},
	{"http.client_write_us", "us", "lower", 0, srv, "median write, client side, traced run"},
	{"http.transport_read_us", "us", "lower", 0, srv, "client span minus its handler span, reads"},
	{"http.transport_write_us", "us", "lower", 0, srv, "client span minus its handler span, writes"},
	{"serve.handler_list_us", "us", "lower", 0, srv, "GET /violations inside the server"},
	{"serve.handler_validate_us", "us", "lower", 0, []string{wReadMostly}, "POST /validate inside the server"},
	{"serve.handler_stats_us", "us", "lower", 0, []string{wReadMostly}, "GET /stats inside the server"},
	{"serve.handler_validate_self_us", "us", "lower", 0, []string{wReadMostly}, "validate handler minus reason.touching_us"},
	{"serve.resp_bytes_per_read", "B", "lower", 0, srv, "response body bytes per read"},
	{"serve.read_p99_us", "us", "lower", 0, srv, "99th percentile read, or the highest percentile with ten samples beyond it"},
	{"serve.handler_mutate_us", "us", "lower", 0, srv, "POST /mutate inside the server, flush wait included"},
	{"serve.req_bytes_per_write", "B", "lower", 0, srv, "request body bytes per write"},
	{"serve.flush_queue_wait_us", "us", "lower", 0, srv, "flush span stage queue_wait"},
	{"serve.flush_mutate_us", "us", "lower", 0, srv, "flush span stage mutate"},
	{"serve.flush_publish_us", "us", "lower", 0, srv, "flush span stage publish"},
	{"serve.flush_total_us", "us", "lower", 0, srv, "flush span duration"},
	{"serve.ops_per_flush", "count", "higher", 0, srv, "ops carried per flush, from /statsz"},
	{"serve.reqs_per_flush", "count", "higher", 0, srv, "requests coalesced per flush, from /statsz"},
	{"serve.write_p99_ms", "ms", "lower", 0, srv, "99th percentile write, or the highest percentile with ten samples beyond it"},
	{"serve.rejected_frac", "ratio", "lower", 0, srv, "503 and 429 responses over attempted"},
	{"serve.restore_ms", "ms", "lower", 0, []string{wIngest}, "NewServer+Restore on a crash copy"},
	{"serve.restore_self_ms", "ms", "lower", 0, []string{wIngest}, "restore minus persist.recover_ms: adopt and first full validation"},
	{"persist.wal_append_us", "us", "lower", 0, srv, "flush span stage wal_append"},
	{"persist.fsync_us", "us", "lower", 0, srv, "flush span stage fsync"},
	{"persist.wal_bytes_per_op", "B", "lower", 0, srv, "bytes written to WAL segments per logical op"},
	{"persist.checkpoint_ms", "ms", "lower", 0, srv, "CreateTemp to Rename of a checkpoint file"},
	{"persist.checkpoints", "count", "lower", 0, srv, "checkpoints written in the window"},
	{"persist.recover_ms", "ms", "lower", 0, []string{wIngest}, "Store.Recover of every tenant, called directly"},
	{"persist.replayed_ops", "count", "lower", 0, []string{wIngest}, "WAL ops replayed by that recovery"},
	{"persist.lost_acked_writes", "count", "lower", 0, []string{wIngest}, "acked writes missing after restoring from flushed bytes only; must be 0"},
	{"fs.writes_per_flush", "count", "lower", 0, srv, "File.Write calls per flush"},
	{"fs.syncs_per_flush", "count", "lower", 0, srv, "File.Sync and SyncDir calls per flush"},
	{"fs.write_us", "us", "lower", 0, srv, "median File.Write"},
	{"fs.sync_us", "us", "lower", 0, srv, "median File.Sync"},
	{"fs.bytes_per_op", "B", "lower", 0, srv, "all bytes written per logical op: write amplification, checkpoints included"},
	{"fs.checkpoint_bytes_per_op", "B", "lower", 0, srv, "checkpoint bytes written per logical op"},
	{"fs.data_dir_mb", "MB", "lower", 0, srv, "size of the data dir at the end of the window"},
	{"bench.trace_overhead_frac", "ratio", "lower", 0, nil, "1 - traced/untraced ops_per_s; above 0.15 the traced numbers are not to be trusted"},
}
