package obs

import "time"

// Observer bundles the two observation sinks — a metrics Registry and
// a span Tracer — as the single handle instrumented layers accept. A
// nil *Observer (and the nil Registry/Tracer it hands out) disables
// observation at the cost of a nil check per site.
type Observer struct {
	reg *Registry
	tr  *Tracer
}

// New returns a full observer: a fresh registry plus a tracer with the
// default ring size. onSlow, when non-nil, receives every span meeting
// the SetSlowOp threshold.
func New(onSlow func(*SpanData)) *Observer {
	return &Observer{reg: NewRegistry(), tr: NewTracer(DefaultTraceRing, onSlow)}
}

// NewWithRegistry returns a full observer whose metrics land in an
// existing registry — how serve shares one registry between its own
// always-on counters and the injected pipeline instrumentation.
func NewWithRegistry(reg *Registry, onSlow func(*SpanData)) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{reg: reg, tr: NewTracer(DefaultTraceRing, onSlow)}
}

// Registry returns the observer's registry; nil on a nil observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the observer's tracer; nil on a nil observer.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// SetSlowOp sets the tracer's slow-operation threshold.
func (o *Observer) SetSlowOp(d time.Duration) {
	if o != nil {
		o.tr.SetSlowOp(d)
	}
}

// MatchStats is the per-plan profiler sink the matcher flushes its
// enumeration tallies into: how many candidate nodes the plan
// examined, how many worst-case-optimal intersection steps vs
// per-candidate probe steps it took, how many complete bindings it
// materialized and how many partial ones a full scan's pruner made it
// abandon. Counters are shared obs handles (typically labeled by
// rule), so the stats accumulate across enumerations and snapshot
// rebinds; any field may be nil.
type MatchStats struct {
	Candidates     *Counter
	IntersectSteps *Counter
	ProbeSteps     *Counter
	Bindings       *Counter
	Pruned         *Counter
}
