package main

// The three library workloads: one caller, calls into gedlib.Engine.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gedlib"
)

// load is LoadGraph inside a span.
func (r *run) load(data []byte) (g *gedlib.Graph, names map[string]gedlib.NodeID, err error) {
	r.tr.timed(-1, -1, "gedio.load_graph", func() { g, names, err = gedlib.LoadGraph(data) })
	return g, names, err
}

// parse is ParseRules inside a span.
func (r *run) parse(dsl string) (sigma gedlib.RuleSet, err error) {
	r.tr.timed(-1, -1, "gedio.parse_rules", func() { sigma, err = gedlib.ParseRules(dsl) })
	return sigma, err
}

// oracle validates g under sigma through the decomposed public path
// (Freeze, NewSnapshotValidator, RunCtx), the reference every workload's
// answers are held against.
func (r *run) oracle(parent int32, op int, g *gedlib.Graph, sigma gedlib.RuleSet) (vs []gedlib.Violation, err error) {
	var snap *gedlib.Snapshot
	var val *gedlib.Validator
	r.tr.timed(parent, op, "graph.freeze", func() { snap = g.Freeze() })
	r.tr.timed(parent, op, "reason.plan_compile", func() { val = gedlib.NewSnapshotValidator(snap, sigma) })
	r.tr.timed(parent, op, "reason.run", func() { vs, err = val.RunCtx(r.ctx, 0) })
	return vs, err
}

// engine returns the Engine a library workload measures: the default
// one, or under trace one with an observer whose registry prom reads.
func (r *run) engine() (eng *gedlib.Engine, prom func() string) {
	if !r.traced {
		return gedlib.New(), func() string { return "" }
	}
	o := gedlib.NewObserver(nil)
	return gedlib.New(gedlib.WithObserver(o)), func() string {
		return promText(func(w io.Writer) { o.Registry().WritePrometheus(w) })
	}
}

// reportOracleLayers sets the layer metrics the oracle and loader spans
// feed on every workload.
func (r *run) reportOracleLayers(d map[string][]float64) {
	r.layerMedian("gedio.load_graph_ms", d["gedio.load_graph"], 1e6)
	r.layerMedian("gedio.parse_rules_us", d["gedio.parse_rules"], 1e3)
	r.layerMedian("graph.freeze_ms", d["graph.freeze"], 1e6)
	r.layerMedian("reason.plan_compile_ms", d["reason.plan_compile"], 1e6)
	r.layerMedian("reason.run_ms", d["reason.run"], 1e6)
}

// libOps is what the shared measuring loop needs of a library workload.
type libOps struct {
	round  int // ops per pass over the workload's pool
	quickN int // op count under -quick
	// op runs op i with spans off and reports whether its answer held.
	op func(i int) bool
	// traced runs op i under the root span, followed by its decomposed
	// twin; pathNS is the time of the Engine path alone.
	traced func(i int, root int32) (pathNS float64, ok bool)
	// follow, when set, is untimed work after each op that ran with spans
	// off; every, when set, an untimed gate after each 1000 such ops.
	follow, every func()
}

// measureLibrary runs the measured phase. Untraced, it reports the
// end-to-end metrics. Traced, it alternates slices with spans off (for
// the base rate: the program's counters cover these ops too) and on, and
// returns the traced op count for the workload's own layer metrics.
func (r *run) measureLibrary(o libOps) (tracedOps int) {
	count := func(ok bool) bool {
		r.res.Attempted++
		if !ok {
			r.res.Failed++
		}
		return ok
	}
	if !r.traced {
		var lat []float64
		m := startMeter()
		i := 0
		for ph := r.phase(1, 20*minBeyond, o.quickN, o.round); ph.more(i); i++ {
			t0 := time.Now()
			ok := o.op(i)
			d := time.Since(t0)
			if count(ok) {
				lat = append(lat, float64(d))
			}
			if o.follow != nil || (o.every != nil && (i+1)%1000 == 0) {
				m.pause()
				if o.follow != nil {
					o.follow()
				}
				if o.every != nil && (i+1)%1000 == 0 {
					o.every()
				}
				m.resume()
			}
		}
		m.pause()
		r.reportEndToEnd(lat, m)
		return 0
	}
	base, baseNS, tracedNS := 0, 0.0, 0.0
	for k := 0; k < r.traceSlices(); k++ {
		spans := r.sliceTraced(k)
		r.tr.enable(spans)
		done := 0
		for ph := r.phase(1/float64(r.traceSlices()), 0, o.quickN, o.round); ph.more(done); done++ {
			i := base + tracedOps
			if !spans {
				t0 := time.Now()
				count(o.op(i))
				baseNS += float64(time.Since(t0))
				if o.follow != nil {
					o.follow()
				}
				base++
				continue
			}
			root := r.tr.start(-1, i, "op")
			ns, ok := o.traced(i, root)
			r.tr.end(root)
			count(ok)
			tracedNS += ns
			tracedOps++
		}
	}
	r.overhead(float64(base)/baseNS, float64(tracedOps)/tracedNS)
	return tracedOps
}

// ---- validate_cyclic ----

type validateCyclic struct {
	pool  []*gedlib.Graph
	sigma gedlib.RuleSet
	eng   *gedlib.Engine
	prom  func() string
	want  []int // oracle violation count per pool graph
	fp    *fingerprint
}

func (w *validateCyclic) setup(r *run) error {
	dsl := kbRulesDSL() + cyclicRulesDSL
	sigma, err := r.parse(dsl)
	if err != nil {
		return err
	}
	w.sigma, w.fp = sigma, newFingerprint()
	w.fp.add([]byte(dsl))
	w.eng, w.prom = r.engine()
	for i := 0; i < 4; i++ {
		data, err := gedlib.MarshalGraph(denseKB(r.inputSeed(int64(i)), r.pick(150, 30), 3))
		if err != nil {
			return err
		}
		w.fp.add(data)
		g, _, err := r.load(data)
		if err != nil {
			return err
		}
		vs, err := r.oracle(-1, -1, g, sigma)
		if err != nil {
			return err
		}
		w.pool, w.want = append(w.pool, g), append(w.want, len(vs))
	}
	for i := 0; i < 2*len(w.pool); i++ { // first freeze and plan compile, then a warm pass
		if !w.op(r, i) {
			return fmt.Errorf("warm-up: Engine.Validate disagrees with the oracle on pool graph %d", i%len(w.pool))
		}
	}
	return nil
}

func (w *validateCyclic) op(r *run, i int) bool {
	k := i % len(w.pool)
	vs, err := w.eng.Validate(r.ctx, w.pool[k], w.sigma)
	return err == nil && len(vs) == w.want[k]
}

func runValidateCyclic(r *run) error {
	w := &validateCyclic{}
	if err := r.timeSetups(func() error { return w.setup(r) }, func() { *w = validateCyclic{} }); err != nil {
		return err
	}
	if err := r.checkFingerprint(w.fp); err != nil {
		return err
	}
	before := readMatchCounters(w.prom())
	violations := 0
	n := r.measureLibrary(libOps{
		round: len(w.pool), quickN: 8,
		op: func(i int) bool { return w.op(r, i) },
		traced: func(i int, root int32) (float64, bool) {
			k := i % len(w.pool)
			id := r.tr.start(root, i, "engine.validate")
			t0 := time.Now()
			vs, err := w.eng.Validate(r.ctx, w.pool[k], w.sigma)
			ns := float64(time.Since(t0))
			r.tr.end(id)
			twin, terr := r.oracle(root, i, w.pool[k], w.sigma)
			violations += len(vs)
			return ns, err == nil && terr == nil && len(vs) == w.want[k] && len(twin) == len(vs)
		},
	})
	if r.traced {
		d := durations(r.tr.finished())
		r.reportOracleLayers(d)
		r.layerMedian("engine.validate_ms", d["engine.validate"], 1e6)
		r.set("engine.validate_self_ms", r.res.Metrics["engine.validate_ms"]-r.res.Metrics["reason.run_ms"], n)
		r.set("reason.violations_per_op", float64(violations)/float64(max(n, 1)), n)
		r.reportMatch(before, readMatchCounters(w.prom()), r.res.Attempted, sum(d["engine.validate"])/float64(max(n, 1)))
	}
	return nil
}

// ---- apply_stream ----

type applyStream struct {
	g     *gedlib.Graph
	sigma gedlib.RuleSet
	eng   *gedlib.Engine
	prom  func() string
	mut   *mutator
	last  []gedlib.Violation // what the latest Apply returned
	fp    *fingerprint

	// the decomposed twin of a traced run
	g2   *gedlib.Graph
	snap *gedlib.Snapshot
	val  *gedlib.Validator
}

func (w *applyStream) setup(r *run) error {
	dsl := streamRulesDSL()
	sigma, err := r.parse(dsl)
	if err != nil {
		return err
	}
	data, err := gedlib.MarshalGraph(streamKB(r.inputSeed(10), r.pick(2000, 100)))
	if err != nil {
		return err
	}
	w.sigma, w.fp = sigma, newFingerprint()
	w.fp.add([]byte(dsl), data)
	if w.g, _, err = r.load(data); err != nil {
		return err
	}
	w.eng, w.prom = r.engine()
	w.mut = newMutator(r.inputSeed(10), w.g)
	if r.traced {
		if w.g2, _, err = r.load(data); err != nil {
			return err
		}
		w.snap = w.g2.Freeze()
		w.val = gedlib.NewSnapshotValidator(w.snap, sigma)
	}
	if w.last, err = w.eng.Apply(r.ctx, w.g, sigma); err != nil {
		return err
	}
	for i := 0; i < r.pick(500, 20); i++ {
		muts := w.mut.next()
		if !w.op(r, muts) {
			return fmt.Errorf("warm-up: Engine.Apply failed")
		}
		w.replay(muts)
	}
	return w.matchesFresh(r)
}

// op applies one op's mutations and brings the maintained set up to date.
func (w *applyStream) op(r *run, muts []mutation) bool {
	for _, mu := range muts {
		mu.apply(w.g)
	}
	vs, err := w.eng.Apply(r.ctx, w.g, w.sigma)
	w.last = vs
	return err == nil
}

// replay keeps the twin graph of a traced run in step during phases
// that do not trace.
func (w *applyStream) replay(muts []mutation) {
	if w.g2 == nil {
		return
	}
	for _, mu := range muts {
		mu.apply(w.g2)
	}
	w.snap = w.snap.Apply(w.g2.DeltaSince(w.snap.SourceVersion()))
	w.val = w.val.Rebase(w.snap)
}

// matchesFresh is the gate: the maintained set equals what a fresh
// engine finds on the same graph.
func (w *applyStream) matchesFresh(r *run) error {
	fresh, err := r.oracle(-1, -1, w.g, w.sigma)
	if err != nil {
		return err
	}
	if !sameViolations(w.last, fresh) {
		return fmt.Errorf("Engine.Apply holds %d violations, a fresh validation finds %d (or another set)", len(w.last), len(fresh))
	}
	return nil
}

// sameViolations compares two violation lists as multisets of (rule,
// match); only some of the public calls return canonical order.
func sameViolations(a, b []gedlib.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, v := range a {
		seen[violationKey(v)]++
	}
	for _, v := range b {
		k := violationKey(v)
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}

func violationKey(v gedlib.Violation) string {
	vars := make([]string, 0, len(v.Match))
	for x := range v.Match {
		vars = append(vars, string(x))
	}
	sort.Strings(vars)
	key := v.GED.Name
	for _, x := range vars {
		key += fmt.Sprintf("|%s=%d", x, v.Match[gedlib.Var(x)])
	}
	return key
}

// touching counts the violations whose match involves a touched node.
func touching(vs []gedlib.Violation, touched []gedlib.NodeID) int {
	set := make(map[gedlib.NodeID]struct{}, len(touched))
	for _, id := range touched {
		set[id] = struct{}{}
	}
	n := 0
	for _, v := range vs {
		for _, id := range v.Match {
			if _, ok := set[id]; ok {
				n++
				break
			}
		}
	}
	return n
}

func runApplyStream(r *run) error {
	w := &applyStream{}
	if err := r.timeSetups(func() error { return w.setup(r) }, func() { *w = applyStream{} }); err != nil {
		return err
	}
	if err := r.checkFingerprint(w.fp); err != nil {
		return err
	}
	prom := w.prom()
	matchBefore, storeBefore := readMatchCounters(prom), readStoreCounters(prom)
	mutations, violations := 0, 0
	var selfNS []float64
	muts := w.mut.next()
	n := r.measureLibrary(libOps{
		quickN: 40,
		op:     func(int) bool { return w.op(r, muts) },
		follow: func() { w.replay(muts); muts = w.mut.next() },
		every: func() {
			r.gate(w.matchesFresh(r) == nil, "apply_stream: maintained set diverged from a fresh validation mid-run")
		},
		traced: func(i int, root int32) (float64, bool) {
			defer func() { muts = w.mut.next() }()
			t0 := time.Now()
			id := r.tr.start(root, i, "graph.mutate")
			for _, mu := range muts {
				mu.apply(w.g)
				mutations += mu.calls()
			}
			r.tr.end(id)
			id = r.tr.start(root, i, "engine.apply")
			a0 := time.Now()
			vs, err := w.eng.Apply(r.ctx, w.g, w.sigma)
			applyNS := float64(time.Since(a0))
			r.tr.end(id)
			pathNS := float64(time.Since(t0))
			w.last = vs
			violations += len(vs)

			// The decomposed public sequence on the twin.
			for _, mu := range muts {
				mu.apply(w.g2)
			}
			var d *gedlib.Delta
			var tv []gedlib.Violation
			var terr error
			s0 := time.Now()
			r.tr.timed(root, i, "graph.delta_since", func() { d = w.g2.DeltaSince(w.snap.SourceVersion()) })
			r.tr.timed(root, i, "graph.snapshot_apply", func() { w.snap = w.snap.Apply(d) })
			r.tr.timed(root, i, "reason.rebase", func() { w.val = w.val.Rebase(w.snap) })
			r.tr.timed(root, i, "reason.touching", func() { tv, terr = w.val.TouchingCtx(r.ctx, d.TouchedNodes(), 0) })
			selfNS = append(selfNS, applyNS-float64(time.Since(s0)))
			return pathNS, err == nil && terr == nil && touching(vs, d.TouchedNodes()) == len(tv)
		},
	})
	r.gate(w.matchesFresh(r) == nil, "apply_stream: final maintained set differs from a fresh validation")
	if r.traced {
		d := durations(r.tr.finished())
		r.reportOracleLayers(d)
		r.set("graph.mutate_us", sum(d["graph.mutate"])/1e3/float64(max(mutations, 1)), mutations)
		r.layerMedian("graph.delta_since_us", d["graph.delta_since"], 1e3)
		r.layerMedian("graph.snapshot_apply_us", d["graph.snapshot_apply"], 1e3)
		r.layerMedian("reason.rebase_us", d["reason.rebase"], 1e3)
		r.layerMedian("reason.touching_us", d["reason.touching"], 1e3)
		r.layerMedian("engine.apply_us", d["engine.apply"], 1e3)
		r.layerMedian("engine.apply_self_us", selfNS, 1e3)
		r.set("reason.violations_per_op", float64(violations)/float64(max(n, 1)), n)
		prom = w.prom()
		r.reportMatch(matchBefore, readMatchCounters(prom), r.res.Attempted, sum(d["engine.apply"])/float64(max(n, 1)))
		r.reportStore(storeBefore, readStoreCounters(prom), r.res.Attempted)
	}
	return nil
}

// ---- chase_keys ----

type chaseKeys struct {
	pool  []*gedlib.Graph
	sigma gedlib.RuleSet
	eng   *gedlib.Engine
	prom  func() string
	steps []int // chase steps per pool graph, fixed at set-up
	fp    *fingerprint
}

func (w *chaseKeys) setup(r *run) error {
	dsl := keyRulesDSL()
	sigma, err := r.parse(dsl)
	if err != nil {
		return err
	}
	w.sigma, w.fp = sigma, newFingerprint()
	w.fp.add([]byte(dsl))
	w.eng, w.prom = r.engine()
	pool, dups := musicPool(r.inputSeed(20), r.pick(100, 15), 4)
	for i, src := range pool {
		data, err := gedlib.MarshalGraph(src)
		if err != nil {
			return err
		}
		w.fp.add(data)
		g, _, err := r.load(data)
		if err != nil {
			return err
		}
		res, err := w.eng.Chase(r.ctx, g, sigma)
		if err != nil {
			return err
		}
		if !res.Consistent() {
			return fmt.Errorf("chase of pool graph %d is inconsistent", i)
		}
		// Each planted duplicate merges one album pair and one artist pair.
		m := res.Materialize()
		if merged := g.NumNodes() - m.NumNodes(); merged != 2*dups {
			return fmt.Errorf("chase merged %d nodes, %d duplicate pairs were planted", merged, dups)
		}
		// Church-Rosser: another rule order reaches the same quotient.
		perm := gedlib.RuleSet{sigma[2], sigma[0], sigma[1]}
		if pres, err := w.eng.Chase(r.ctx, g, perm); err != nil || pres.Materialize().Size() != m.Size() {
			return fmt.Errorf("chase under a permuted rule order gives another result (err %v)", err)
		}
		// The keys are violated before the chase and hold after it.
		dirty, err := r.oracle(-1, -1, g, sigma)
		if err != nil {
			return err
		}
		clean, err := r.oracle(-1, -1, m, sigma)
		if err != nil {
			return err
		}
		if len(dirty) == 0 || len(clean) != 0 {
			return fmt.Errorf("keys: %d violations before the chase, %d after, %d duplicates planted", len(dirty), len(clean), dups)
		}
		w.pool, w.steps = append(w.pool, g), append(w.steps, len(res.Steps))
	}
	for i := 0; i < len(w.pool); i++ {
		if !w.op(r, i) {
			return fmt.Errorf("warm-up: chase of pool graph %d changed its answer", i)
		}
	}
	return nil
}

func (w *chaseKeys) op(r *run, i int) bool {
	k := i % len(w.pool)
	res, err := w.eng.Chase(r.ctx, w.pool[k], w.sigma)
	return err == nil && res.Consistent() && len(res.Steps) == w.steps[k]
}

func runChaseKeys(r *run) error {
	w := &chaseKeys{}
	if err := r.timeSetups(func() error { return w.setup(r) }, func() { *w = chaseKeys{} }); err != nil {
		return err
	}
	if err := r.checkFingerprint(w.fp); err != nil {
		return err
	}
	rounds, steps := promSum(w.prom(), "ged_chase_rounds_total", ""), 0
	n := r.measureLibrary(libOps{
		round: len(w.pool), quickN: 8,
		op: func(i int) bool { return w.op(r, i) },
		traced: func(i int, root int32) (float64, bool) {
			k := i % len(w.pool)
			id := r.tr.start(root, i, "chase.run")
			t0 := time.Now()
			res, err := w.eng.Chase(r.ctx, w.pool[k], w.sigma)
			ns := float64(time.Since(t0))
			r.tr.end(id)
			if err != nil || !res.Consistent() {
				return ns, false
			}
			steps += len(res.Steps)
			r.tr.timed(root, i, "chase.materialize", func() { res.Materialize() })
			return ns, len(res.Steps) == w.steps[k]
		},
	})
	if r.traced {
		d := durations(r.tr.finished())
		r.reportOracleLayers(d)
		r.layerMedian("chase.run_ms", d["chase.run"], 1e6)
		r.layerMedian("chase.materialize_ms", d["chase.materialize"], 1e6)
		r.set("chase.rounds_per_op", (promSum(w.prom(), "ged_chase_rounds_total", "")-rounds)/float64(r.res.Attempted), r.res.Attempted)
		r.set("chase.steps_per_op", float64(steps)/float64(max(n, 1)), n)
		r.set("chase.us_per_step", sum(d["chase.run"])/1e3/float64(max(steps, 1)), steps)
	}
	return nil
}
