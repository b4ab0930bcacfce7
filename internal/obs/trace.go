package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage is one timed phase of a span — a flush's WAL append, its
// fsync, its Session.CatchUp, and so on.
type Stage struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"duration_ns"`
}

// SpanData is one completed operation as kept in the trace ring and
// served by /tracez.
type SpanData struct {
	Graph  string        `json:"graph,omitempty"`
	Op     string        `json:"op"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"duration_ns"`
	Err    string        `json:"error,omitempty"`
	Stages []Stage       `json:"stages,omitempty"`
	// Version is the graph version the operation captured, when it
	// names one (a checkpoint's cut).
	Version uint64 `json:"version,omitempty"`
}

// DefaultTraceRing is the span ring size a fresh Observer uses.
const DefaultTraceRing = 256

// Tracer collects completed spans into a fixed-size lock-free ring:
// writers claim a slot with one fetch-add and store a pointer, so
// tracing never serializes the operations it observes; the ring simply
// retains the most recent spans. A nil *Tracer produces nil (no-op)
// spans.
type Tracer struct {
	ring   []atomic.Pointer[SpanData]
	pos    atomic.Uint64
	slowNS atomic.Int64
	onSlow func(*SpanData)
}

// NewTracer returns a tracer retaining the size most recent spans.
// onSlow, when non-nil, is invoked synchronously for every span whose
// duration meets the SetSlowOp threshold.
func NewTracer(size int, onSlow func(*SpanData)) *Tracer {
	if size <= 0 {
		size = DefaultTraceRing
	}
	return &Tracer{ring: make([]atomic.Pointer[SpanData], size), onSlow: onSlow}
}

// SetSlowOp sets the slow-operation threshold; 0 disables the hook.
func (t *Tracer) SetSlowOp(d time.Duration) {
	if t != nil {
		t.slowNS.Store(int64(d))
	}
}

// Start begins a span for op on graph (graph may be empty for
// process-wide operations). Returns nil — a no-op span — on a nil
// tracer. A span is owned by one goroutine; it is not safe for
// concurrent use.
func (t *Tracer) Start(graph, op string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &Span{t: t, d: SpanData{Graph: graph, Op: op, Start: now}, mark: now}
}

// Recent returns up to max of the newest completed spans, newest
// first. A filter of nil keeps every span.
func (t *Tracer) Recent(max int, keep func(*SpanData) bool) []*SpanData {
	if t == nil || max <= 0 {
		return nil
	}
	if max > len(t.ring) {
		max = len(t.ring)
	}
	out := make([]*SpanData, 0, max)
	pos := t.pos.Load()
	for i := uint64(0); i < uint64(len(t.ring)) && len(out) < max; i++ {
		idx := (pos - 1 - i + uint64(len(t.ring))) % uint64(len(t.ring))
		sd := t.ring[idx].Load()
		if sd == nil {
			continue
		}
		if keep == nil || keep(sd) {
			out = append(out, sd)
		}
	}
	return out
}

// Span is one in-flight operation. All methods are no-ops on nil.
type Span struct {
	t    *Tracer
	d    SpanData
	mark time.Time
}

// Stage closes the current phase under name: its duration is the time
// since the previous Stage call (or the span's start) and the phase
// clock resets.
func (s *Span) Stage(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.d.Stages = append(s.d.Stages, Stage{Name: name, Dur: now.Sub(s.mark)})
	s.mark = now
}

// StageDur records a phase with an explicitly measured duration,
// without touching the phase clock — for phases timed elsewhere (a
// request's queue wait measured from its enqueue timestamp).
func (s *Span) StageDur(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.d.Stages = append(s.d.Stages, Stage{Name: name, Dur: d})
}

// SetVersion records the graph version the operation captured.
func (s *Span) SetVersion(v uint64) {
	if s != nil {
		s.d.Version = v
	}
}

// Fail records the error the operation ended with.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.d.Err = err.Error()
}

// End completes the span: computes its duration, publishes it into the
// ring, and fires the slow-op hook when the threshold is met.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.d.Dur = time.Since(s.d.Start)
	t := s.t
	sd := &s.d
	idx := (t.pos.Add(1) - 1) % uint64(len(t.ring))
	t.ring[idx].Store(sd)
	if slow := t.slowNS.Load(); slow > 0 && int64(s.d.Dur) >= slow && t.onSlow != nil {
		t.onSlow(sd)
	}
}

// ctxKey keys the context values this package propagates.
type ctxKey int

const (
	spanKey ctxKey = iota
	observerKey
)

// ContextWithSpan attaches a span to ctx.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey, s)
}

// SpanFrom returns the span attached to ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWithObserver attaches an observer to ctx — the handoff into
// layers with no explicit wiring (the chase reads it back with
// FromContext).
func ContextWithObserver(ctx context.Context, o *Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, observerKey, o)
}

// FromContext returns the observer attached to ctx, or nil.
func FromContext(ctx context.Context) *Observer {
	o, _ := ctx.Value(observerKey).(*Observer)
	return o
}
