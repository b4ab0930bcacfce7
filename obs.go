package gedlib

// Observability facade: the injectable observer handle and its
// constructor. The full surface — metric handles, the Prometheus
// exposition, the span ring — lives in gedlib/internal/obs; the
// serving layer consumes it directly (serve mounts /metricsz and
// /tracez), while library callers only ever hand an *Observer to
// WithObserver or serve.Config.Observer.

import "gedlib/internal/obs"

// Observer bundles a metrics registry and a span tracer — the single
// handle the instrumented layers (engine, matcher, chase, persist,
// serve) report into. A nil *Observer disables observation;
// instrumented code pays one nil check per site.
type Observer = obs.Observer

// SpanData is one completed traced operation, as retained in the
// observer's recent-trace ring and served by serve's /tracez.
type SpanData = obs.SpanData

// NewObserver returns a full observer: a fresh metrics registry plus a
// recent-trace ring. onSlow, when non-nil, is invoked synchronously
// for every span whose duration meets the Observer.SetSlowOp
// threshold (nil just disables the slow-op log).
func NewObserver(onSlow func(*SpanData)) *Observer {
	return obs.New(onSlow)
}

// WithObserver attaches an observer to the engine: Validate/Apply
// latency histograms, session snapshot freeze/advance/hit counters,
// violation-store maintenance counters, per-rule match-plan profiles
// and chase round counts all land in its registry. A nil observer (the
// default) keeps the engine unobserved.
func WithObserver(o *Observer) Option {
	return func(e *Engine) { e.obs = o }
}
