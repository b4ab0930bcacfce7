// Package obs is the dependency-free observability core of the
// library: an atomic metrics registry (counters, gauges, log-scale
// latency histograms with quantile extraction), context-propagated
// spans collected into a lock-free recent-trace ring buffer with a
// slow-operation hook, and the match profiler the pattern matcher
// reports plan statistics through.
//
// Everything is built for the hot path it instruments:
//
//   - Metric handles are obtained once (get-or-create on the Registry)
//     and then updated with single atomic operations; histograms index
//     a fixed log-scale bucket table with two sub-buckets per octave,
//     so Record is one shift, one mask and three atomic adds.
//   - Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
//     *Histogram, *Tracer or *Span are no-ops, so instrumented code
//     pays one nil check when observation is disabled instead of
//     branching on configuration.
//   - The span ring is a fixed array of atomic pointers rotated by a
//     single fetch-add; writers never block each other or readers, and
//     Recent reassembles the newest spans without locking.
//
// The Registry renders itself in the Prometheus text exposition format
// (WritePrometheus); serve mounts that as GET /metricsz and the span
// ring as GET /tracez. The Observer bundles one Registry and one
// Tracer and travels by injection — Engine option WithObserver,
// serve.Config.Observer, persist.Options.Observer — or by context
// (ContextWithObserver / FromContext) where no wiring exists, as in
// the chase.
//
// Metric naming follows the Prometheus conventions: every family is
// prefixed ged_, counters end in _total, histograms and their
// exposition are in seconds, and bounded label sets only (stage names,
// rule names, graph names — never node ids or request payloads).
package obs
