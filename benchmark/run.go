package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is what one (workload, mode) run reports. The driver's result
// line is cut from it; the full document keeps all of it.
type result struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Quick       bool               `json:"quick,omitempty"`
	Seed        int64              `json:"seed"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Gates       []string           `json:"gate_failures,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
	Fingerprint string             `json:"input_fingerprint"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Gates) == 0 }

// run is one execution of one workload in one mode.
type run struct {
	ctx     context.Context
	def     *workloadDef
	seed    int64
	seconds float64 // length of the measured phase
	traced  bool
	quick   bool
	tmp     string // scratch directory inside the checkout
	tr      *tracer
	res     result
}

// set records a metric with the number of samples behind it.
func (r *run) set(name string, v float64, samples int) {
	r.res.Metrics[name] = v
	r.res.Samples[name] = samples
}

// gate records a failed correctness gate; the run then ends incorrect.
func (r *run) gate(ok bool, format string, args ...any) bool {
	if !ok && len(r.res.Gates) < 20 {
		r.res.Gates = append(r.res.Gates, fmt.Sprintf(format, args...))
	}
	return ok
}

// setups is how many times a run sets up: the median of three is
// reported, the state of the last is measured.
func (r *run) setups() int {
	if r.quick {
		return 1
	}
	return 3
}

// traceSlices is how many slices a traced run's measured phase has.
// The middle one of every three runs with spans off, so both kinds sit
// at the same mean position in the run and a workload whose cost drifts
// (a growing graph) gives both rates the same mix.
func (r *run) traceSlices() int { return r.pick(9, 3) }

func (r *run) sliceTraced(k int) bool { return k%3 != 1 }

// inputSeed derives the seed of a run's k-th generated input from -seed,
// so that neighbouring -seed values share no input.
func (r *run) inputSeed(k int64) int64 { return 1000*r.seed + k }

// pick chooses between the full and the -quick size of an input.
func (r *run) pick(full, quick int) int {
	if r.quick {
		return quick
	}
	return full
}

// timeSetups runs setup the configured number of times, discarding the
// state of all but the last, and reports setup_s.
func (r *run) timeSetups(setup func() error, discard func()) error {
	var secs []float64
	for k := 0; k < r.setups(); k++ {
		if k > 0 {
			discard()
			runtime.GC()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	if !r.traced {
		r.set("setup_s", median(secs), len(secs))
	}
	return nil
}

// checkFingerprint pins the inputs of a full-size seed-1 run.
func (r *run) checkFingerprint(f *fingerprint) error {
	r.res.Fingerprint = f.sum()
	if r.quick || r.seed != 1 {
		return nil
	}
	if want := pinnedFingerprints[r.def.Name]; want != r.res.Fingerprint {
		return fmt.Errorf("inputs drifted: %s fingerprint is %s, pinned %s", r.def.Name, r.res.Fingerprint, want)
	}
	return nil
}

// phase is one stretch of ops and its stop rule: a fixed count, or the
// clock together with a minimum sample count and a whole number of
// rounds over the workload's pool.
type phase struct {
	fixed   int // stop after this many ops when > 0
	dur     time.Duration
	minOps  int
	round   int
	started time.Time
}

// phase returns the stop rule for a share of the measured time; under
// -quick it is quickN ops instead.
func (r *run) phase(share float64, minOps, quickN, round int) *phase {
	if r.quick {
		return &phase{fixed: quickN}
	}
	return &phase{dur: time.Duration(share * r.seconds * float64(time.Second)),
		minOps: minOps, round: max(round, 1), started: time.Now()}
}

func (p *phase) more(done int) bool {
	if p.fixed > 0 {
		return done < p.fixed
	}
	return time.Since(p.started) < p.dur || done < p.minOps || done%p.round != 0
}

// meter measures wall time and allocation over a stretch, with pauses
// for untimed work (periodic gates) that must count toward neither.
type meter struct {
	wall    time.Duration
	bytes   uint64
	mallocs uint64
	t0      time.Time
	m0      runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	m.resume()
	return m
}

func (m *meter) resume() {
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
}

func (m *meter) pause() {
	m.wall += time.Since(m.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.bytes += m1.TotalAlloc - m.m0.TotalAlloc
	m.mallocs += m1.Mallocs - m.m0.Mallocs
}

// liveHeapMB is the heap still reachable after two collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// reportEndToEnd sets the end-to-end metrics every workload shares from
// the measured phase: the latencies in ns of the ops that succeeded, and
// the meter.
func (r *run) reportEndToEnd(lat []float64, m *meter) {
	r.set("ops_per_s", float64(len(lat))/m.wall.Seconds(), len(lat))
	r.setPercentiles("op", lat, true)
	n := float64(max(r.res.Attempted, 1))
	r.set("alloc_kb_per_op", float64(m.bytes)/1024/n, r.res.Attempted)
	r.set("allocs_per_op", float64(m.mallocs)/n, r.res.Attempted)
	r.set("failed_frac", float64(r.res.Failed)/n, r.res.Attempted)
	r.set("live_heap_mb", liveHeapMB(), 1)
}

// setPercentiles reports <prefix>_p50_ms and, if tail is set,
// <prefix>_p95_ms of ns latencies, each only where enough samples lie
// beyond it.
func (r *run) setPercentiles(prefix string, ns []float64, tail bool) {
	s := sorted(ns)
	if v, ok := percentile(s, 0.50); ok {
		r.set(prefix+"_p50_ms", v/1e6, len(s))
	}
	if v, ok := percentile(s, 0.95); ok && tail {
		r.set(prefix+"_p95_ms", v/1e6, len(s))
	}
}

// layerMedian reports the median of span durations (ns) in the given
// unit; a name with no spans reads 0.
func (r *run) layerMedian(name string, ns []float64, perUnit float64) {
	r.set(name, median(ns)/perUnit, len(ns))
}

// overhead reports bench.trace_overhead_frac from the two op rates of a
// traced run.
func (r *run) overhead(untracedRate, tracedRate float64) {
	r.set("bench.trace_overhead_frac", 1-tracedRate/untracedRate, 1)
}

// matchCounters are the matcher's registry counters (source B).
type matchCounters struct{ candidates, intersect, probe, bindings float64 }

func readMatchCounters(prom string) matchCounters {
	return matchCounters{
		candidates: promSum(prom, "ged_match_candidates_total", ""),
		intersect:  promSum(prom, "ged_match_intersect_steps_total", ""),
		probe:      promSum(prom, "ged_match_probe_steps_total", ""),
		bindings:   promSum(prom, "ged_match_bindings_total", ""),
	}
}

// reportMatch sets pattern.* from counter deltas over ops ops, a traced
// one of which spent nsPerOp in matcher-driving calls.
func (r *run) reportMatch(before, after matchCounters, ops int, nsPerOp float64) {
	n := float64(max(ops, 1))
	bind := after.bindings - before.bindings
	cand := after.candidates - before.candidates
	r.set("pattern.candidates_per_op", cand/n, ops)
	r.set("pattern.intersect_steps_per_op", (after.intersect-before.intersect)/n, ops)
	r.set("pattern.probe_steps_per_op", (after.probe-before.probe)/n, ops)
	r.set("pattern.bindings_per_op", bind/n, ops)
	if bind > 0 {
		r.set("pattern.candidates_per_binding", cand/bind, ops)
		r.set("pattern.ns_per_binding", nsPerOp*n/bind, ops)
	}
}

// storeCounters are the engine's maintained-store and snapshot-cache
// counters (source B).
type storeCounters struct{ rechecks, fresh, drops, advance, freeze float64 }

func readStoreCounters(prom string) storeCounters {
	return storeCounters{
		rechecks: promSum(prom, "ged_engine_store_rechecks_total", ""),
		fresh:    promSum(prom, "ged_engine_store_fresh_total", ""),
		drops:    promSum(prom, "ged_engine_store_drops_total", ""),
		advance:  promSum(prom, "ged_engine_snapshot_cache_total", `outcome="advance"`),
		freeze:   promSum(prom, "ged_engine_snapshot_cache_total", `outcome="freeze"`),
	}
}

func (r *run) reportStore(before, after storeCounters, applies int) {
	n := float64(max(applies, 1))
	r.set("engine.store_rechecks_per_op", (after.rechecks-before.rechecks)/n, applies)
	r.set("engine.store_fresh_per_op", (after.fresh-before.fresh)/n, applies)
	r.set("engine.store_drops_per_op", (after.drops-before.drops)/n, applies)
	adv, frz := after.advance-before.advance, after.freeze-before.freeze
	frac := 1.0
	if adv+frz > 0 {
		frac = adv / (adv + frz)
	}
	r.set("engine.snapshot_advance_frac", frac, applies)
}

// promText renders a registry through its Prometheus writer.
func promText(write func(io.Writer)) string {
	var b bytes.Buffer
	write(&b)
	return b.String()
}

// promSum adds up every series of the named family in a Prometheus text
// exposition whose label set contains label (all of them for ""). A
// family the program no longer exposes sums to 0: absent, not a failure.
func promSum(text, name, label string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') || !strings.Contains(rest, label) {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil && !math.IsNaN(v) {
			total += v
		}
	}
	return total
}
