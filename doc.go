// Package gedlib is a from-scratch Go implementation of "Dependencies
// for Graphs" (Wenfei Fan and Ping Lu, PODS 2017): graph entity
// dependencies (GEDs) over property graphs, the revised chase with the
// Church-Rosser property, decision procedures for satisfiability,
// implication and validation, the finite axiom system A_GED, and the
// GDC and GED∨ extensions.
//
// The public API is this root package: construct an Engine with
// functional options and call its context-aware methods —
//
//	eng := gedlib.New(gedlib.WithWorkers(4))
//	sigma, _ := gedlib.ParseRules(src)
//	g, _, _ := gedlib.LoadGraph(data)
//	vs, err := eng.Validate(ctx, g, sigma)
//
// Rules are parsed from a text DSL (ParseRules) or built
// programmatically (NewPattern, NewRule, NewKey, the literal
// constructors); graphs load from JSON (LoadGraph) or are built with
// NewGraph. A Rule is a GED, a GDC (ordered comparisons) or a GED∨
// (disjunctive consequent), told apart by Rule.Form; validation,
// CheckSat and Implies take all three, the chase GEDs only (ErrNotGED).
// The workload subpackage exposes the paper's generators, internal/ the
// machinery; README.md has the package map, quickstart and DSL grammar.
// The benchmarks in bench_test.go regenerate Table 1's shapes:
//
//	go test -bench=. -benchmem
//
// # Storage model
//
// Graph is the mutable build-time representation. Every analysis
// matches patterns on Snapshot, a frozen read-only copy built by
// Graph.Freeze: labels, attribute names and values interned into dense
// ints, CSR in/out adjacency grouped and sorted by edge label, per-label
// node postings and degree statistics, and the attribute-value index
// folded in.
// Snapshots are immutable and safe for unsynchronized concurrent
// readers; they reflect the graph at freeze time (compare
// Snapshot.SourceVersion against Graph.Version to detect staleness).
//
// Callers normally never freeze explicitly: Engine.Open freezes a graph
// once into a Session, and the Engine's graph-keyed methods keep one
// session per graph, so repeated Validate, Satisfies and Discover calls
// on an unchanged graph pay the freeze cost once; the context-free
// shortcuts (Satisfies, IsModel, Answers) freeze once per call. Under a
// positive violation limit Validate truncates in enumeration order for
// any worker count — snapshots enumerate neighbours in (label, id)
// order, and parallel validation cuts each rule's sequential search
// into morsels of its first-level candidates whose results concatenate
// back into that order — while the canonical-order APIs sort before
// truncating.
//
// # Deltas and incremental maintenance
//
// Graphs are add-only and journal every mutation: Graph.DeltaSince(v)
// returns the Delta — added nodes, added edges, attribute writes —
// applied after version v. The journal is trimmed to keep every lag of
// up to a quarter of the graph, the most a session replays rather than
// re-freezing, and DeltaSince answers nil for older versions. A node's
// attributes are the paper's finite tuple, which Graph.Attrs iterates
// in attribute name order. Snapshot.Apply(delta) advances a frozen
// snapshot by a delta in O(|Δ| + touched adjacency): the snapshot's
// per-node tables are page-chunked and copy-on-write, so only the
// pages, label postings and symbol tables the delta touches are
// cloned; everything else is shared with the parent, and both remain
// immutable and concurrently readable. Symbol ids are append-only
// within a snapshot lineage, which lets compiled matcher plans rebind
// to an advanced snapshot instead of recompiling.
//
// Session.Apply(ctx, delta) drives the whole incremental-validation
// pipeline: it advances the session's snapshot by the delta, maintains
// the violation set of its rules (re-checking only violations the
// delta touches and searching only the touched neighborhoods for new
// ones), and returns the complete canonical violation set at O(|Δ|)
// cost per update; it refuses a nil delta (history the journal no
// longer holds) with ErrNoDelta. Engine.Apply(ctx, g, Σ) is that for a
// caller holding only a mutable graph: the delta off g's journal, or a
// re-freeze when the backlog rivals the graph. It also serves Validate and ValidateIncremental after
// mutations, so no graph-bound method re-freezes an already-seen
// graph; the chase freezes its input once, matches its first round on
// that snapshot and every round after a node merge on the snapshot's
// attribute-free quotient, and builds the coercion graph only when the
// result's Coercion method is first called. A disconnected pattern —
// every GKey is Q ∪ f(Q) — is never enumerated as a cross product
// there: the chase matches each connected component
// on its own and hash-joins the components on the antecedent's
// equality literals between them, evaluated under the equivalence
// relation built so far, so only pairs that can fire a step are looked
// at.
//
// # Match enumeration
//
// Patterns match on snapshots only; a caller holding a Graph freezes it
// first. The matcher's extension step is worst-case-optimal: binding a
// variable with several already-bound pattern-neighbors
// leapfrog-intersects their sorted CSR adjacency runs (with galloping
// seeks), so only candidates satisfying every incident concrete-labeled
// edge are ever enumerated — the decisive case on cyclic patterns; with
// one bound neighbor its run drives and the residual constraints are
// probed per candidate. Constant antecedent literals (x.A = c) are
// pushed down into compiled plans: they resolve to the snapshot's
// (attr, value) posting lists, join the candidate intersection, and
// their postings stay valid across Snapshot.Apply, which maintains
// the pairs compiled plans declared eagerly, in O(batch). Variable
// literals, id literals and consequent literals are not pushable; full
// scans prune on them instead: each is evaluated once, at the search
// depth where its last variable is bound, and the partial binding is
// abandoned if an antecedent literal is false or the whole consequent
// holds — only violations reach the leaf. The touched-neighbourhood
// search of Apply runs unpruned (measured: judging its label-scan
// candidates costs more than it saves). Plan costing counts literal
// postings toward a variable's candidate estimate and orders the
// search toward intersection-tight variables, then toward ones that
// close a literal.
// The differential tests compare the matcher with a brute-force
// homomorphism enumerator that shares none of its code.
//
// Validation over a snapshot judges each match on the matcher's dense
// binding vector: a rule's X and Y are compiled once per prepared
// validator to vector positions and interned attribute ids, carried
// across Rebase like the plans' label ids, and a Match map is built
// only for the matches that are violations. Resolving variables and
// attributes by name per match (ged.Holds) is left to the small
// solvers and the oracle the differential tests compare against.
//
// # Serving
//
// The serve subpackage (daemon: cmd/gedserve) turns the library into a
// long-running multi-tenant system: a catalog of named graphs behind an
// HTTP+JSON API. Its read path is lock-free — every write flush
// publishes an immutable view (snapshot, rebased validator, maintained
// violation set, id mapping) through an atomic pointer, so concurrent
// readers never block writers — and its write path coalesces: mutations
// enqueue onto a per-graph bounded batcher flushed by size or deadline;
// a flush resolves its batch into one delta, logs it, then applies it
// by one Session.Apply. One Engine
// serves the whole catalog and each graph entry owns one Session, whose
// Snapshot and Validator are exactly what a view publishes; a deleted
// graph's session goes with its entry. A custom serving layer builds the
// same shape from Engine.Open and those two accessors.
//
// The persist subpackage makes the catalog durable and replicable:
// each coalesced flush is written ahead as one CRC-framed delta record
// in a per-graph WAL (one fsync per batch — group commit riding the
// batcher), periodic checkpoints store the graph's columnar image in an
// mmap-able file, and recovery maps the newest valid checkpoint and
// replays only the log tail, truncating torn records. A second gedserve
// pointed at the same directory tails the log and serves the same
// graphs as a read-only replica. See ExportImage/ImportImage and
// Graph.ApplyDelta for the underlying primitives.
//
// # Observability
//
// WithObserver(NewObserver(nil)) makes the engine report into a
// dependency-free observability core (internal/obs): an atomic metrics
// registry of counters, gauges and log-scale latency histograms, plus
// context-propagated spans collected in a lock-free ring of recent
// traces. Instrumentation spans every layer — Validate/Apply/Chase
// timings and the snapshot cache, per-rule matcher profiles (candidate,
// intersection, probe and binding counts with the active plan
// fingerprint), chase rounds, considered matches and applied steps,
// WAL/checkpoint/recovery durability counters, and the serving flush
// pipeline broken into queue-wait, WAL-append, fsync, apply and publish
// stages. The serve subpackage
// wires an Observer through automatically and exposes the registry as
// Prometheus text at /metricsz, the trace ring at /tracez, and a
// slow-operation log via Config.SlowOp; benchmark/ reports what tracing
// costs the serving workloads as bench.trace_overhead_frac.
//
// Persistence I/O is pluggable (persist.FS), and the serving layer has
// an explicit failure policy built on it: transient write errors are
// retried inside the flush, a failed fsync is never retried (the graph
// degrades immediately — reads keep serving the last published view,
// writes 503 — until a heal checkpoint re-opens it, via background
// probe or the operator enable endpoint). The fault-injecting FS in
// persist/fault plus the chaos soak (serve.TestChaosSoak) rehearse
// exactly these paths: seeded disk-fault schedules under
// concurrent load, with acked-write durability and violation-set
// equivalence checked against a fresh-engine oracle after a simulated
// crash.
package gedlib
