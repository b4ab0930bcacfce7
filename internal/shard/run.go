package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"gedlib/internal/graph"
	"gedlib/internal/obs"
	"gedlib/internal/reason"
)

// unbound marks an unbound slot of a frame's binding vector.
const unbound graph.NodeID = -1

// frame is one resumable partial binding: rule cr's extension order oi,
// about to execute step si, with bind holding the bound variables (by
// variable index, unbound slots -1). Frames live in per-shard queues;
// the queue a frame sits in decides which shard snapshot extends it.
type frame struct {
	rule int32
	oi   int32
	si   int32
	bind []graph.NodeID
}

// runner executes one frame-protocol search: P shard queues under one
// lock, P workers with work stealing (any worker may pick up any
// shard's frames — shard snapshots are immutable and shared in-process,
// so stealing only moves CPU time, never state), and per-destination
// violation buckets keyed by the owner of the match's first-variable
// binding.
type runner struct {
	sh     *sharding
	global *graph.Snapshot
	rules  []*compiledRule
	// lits are the rules' compiled literals rebound to this global
	// snapshot (per runner, not per rule: a delta can introduce an
	// attribute after rule compilation).
	lits []*reason.CompiledRule

	mu      sync.Mutex
	cond    *sync.Cond
	queues  [][]frame
	pending int
	// failed, once set, drains the search: next() stops handing out
	// frames and run() returns the error. It contains worker panics — a
	// poisoned rule must fail one validation, not kill the process or
	// strand the other workers in cond.Wait (their frames would never
	// retire, so pending could not reach zero).
	failed error

	outMu   sync.Mutex
	buckets [][]reason.Violation

	// reg, when non-nil, receives the search's frame-traffic matrix and
	// finalization-reject count; workers tally locally and merge once.
	reg *obs.Registry
}

func newRunner(sh *sharding, global *graph.Snapshot, rules []*compiledRule) *runner {
	r := &runner{
		sh:      sh,
		global:  global,
		rules:   rules,
		lits:    make([]*reason.CompiledRule, len(rules)),
		queues:  make([][]frame, sh.p),
		buckets: make([][]reason.Violation, sh.p),
	}
	for i, cr := range rules {
		r.lits[i] = cr.lits.Rebind(global)
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// seed enqueues a frame before the workers start (no locking needed).
// A frame whose next step has an anchor goes to the anchor binding's
// owner; one with no anchor (or no step left) broadcasts so every shard
// covers the candidates it owns — dst < 0 requests the broadcast.
func (r *runner) seed(dst int, f frame) {
	if dst >= 0 {
		r.queues[dst] = append(r.queues[dst], f)
		r.pending++
		return
	}
	for q := 0; q < r.sh.p; q++ {
		g := f
		g.bind = append([]graph.NodeID(nil), f.bind...)
		r.queues[q] = append(r.queues[q], g)
		r.pending++
	}
}

// seedFull enqueues the full-enumeration entry frames: order 0, step 0
// of every rule, broadcast (step 0 has no bound anchor; each shard
// enumerates its owned label candidates, so the seed space partitions
// exactly). A zero-variable pattern would finalize identically on every
// shard, so it seeds one queue only.
func (r *runner) seedFull() {
	for ri, cr := range r.rules {
		f := frame{rule: int32(ri), bind: newBind(len(cr.vars))}
		if len(cr.vars) == 0 {
			r.seed(0, f)
			continue
		}
		r.seed(-1, f)
	}
}

// seedTouched enqueues the incremental entry frames: for every rule and
// every pattern variable k, the pivoted order 1+k with k pre-bound to
// each touched node that passes the variable's label and (definitive,
// global-snapshot) constant-filter checks — the same pivot set the
// monolithic touched-search tries, with each pivot frame landing on the
// touched node's owner. Duplicate finds across pivots collapse later:
// all copies of a match route to the same destination store.
func (r *runner) seedTouched(touched []graph.NodeID) {
	for ri, cr := range r.rules {
		for k := range cr.vars {
			oi := int32(1 + k)
		next:
			for _, t := range touched {
				if !graph.LabelMatches(cr.labels[k], r.global.Label(t)) {
					continue
				}
				for _, fl := range cr.filters[k] {
					v, ok := r.global.Attr(t, fl.Attr)
					if !ok || !v.Equal(fl.Value) {
						continue next
					}
				}
				bind := newBind(len(cr.vars))
				bind[k] = t
				f := frame{rule: int32(ri), oi: oi, si: 1, bind: bind}
				r.seed(r.frameDst(f), f)
			}
		}
	}
}

// frameDst resolves a frame's destination queue: the owner of its next
// step's anchor binding, or broadcast (-1) when the next variable has
// no bound pattern neighbor. A finished frame (si past the order) goes
// to the first binding's owner arbitrarily — finalization only needs
// the global snapshot.
func (r *runner) frameDst(f frame) int {
	cr := r.rules[f.rule]
	order := cr.orders[f.oi]
	if int(f.si) >= len(order) {
		for _, n := range f.bind {
			if n != unbound {
				return int(r.sh.owner[n])
			}
		}
		return 0
	}
	st := &cr.steps[f.oi][f.si]
	if len(st.anchors) == 0 {
		return -1
	}
	return int(r.sh.owner[f.bind[st.anchors[0].other]])
}

// run starts P workers and blocks until the frame space drains (or ctx
// cancels or a worker fails, in which case remaining frames are
// discarded). Per-worker buckets merge into r.buckets.
func (r *runner) run(ctx context.Context) error {
	var wg sync.WaitGroup
	for w := 0; w < r.sh.p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					r.fail(fmt.Errorf("shard: validation worker panic: %v", p))
				}
			}()
			ws := &wstate{
				r:       r,
				ctx:     ctx,
				home:    w,
				out:     make([][]frame, r.sh.p),
				buckets: make([][]reason.Violation, r.sh.p),
			}
			if r.reg != nil {
				ws.nFrames = make([]uint64, r.sh.p*r.sh.p)
			}
			ws.loop()
			r.outMu.Lock()
			for q, b := range ws.buckets {
				r.buckets[q] = append(r.buckets[q], b...)
			}
			r.outMu.Unlock()
			ws.flushMetrics()
		}(w)
	}
	wg.Wait()
	r.mu.Lock()
	err := r.failed
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// fail aborts the search with err (the first one wins) and wakes every
// worker blocked for work so they observe it and exit.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.failed == nil {
		r.failed = err
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// wstate is one worker's scratch: outgoing frame buffers (flushed in
// batches to keep queue-lock traffic low) and per-destination
// violation buckets.
type wstate struct {
	r       *runner
	ctx     context.Context
	home    int
	out     [][]frame
	outN    int
	buckets [][]reason.Violation
	ticks   int
	// metric tallies, merged once per worker (nFrames nil when the
	// runner is unobserved): frames shipped indexed src*p+dst, and
	// complete bindings rejected at finalization.
	nFrames  []uint64
	nRejects uint64
}

// flushMetrics merges this worker's tallies into the runner's registry;
// one get-or-create per touched series per worker per search.
func (ws *wstate) flushMetrics() {
	reg := ws.r.reg
	if reg == nil {
		return
	}
	p := ws.r.sh.p
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if n := ws.nFrames[src*p+dst]; n > 0 {
				reg.Counter("ged_shard_frames_total", "partial-binding frames shipped between shards",
					"src", strconv.Itoa(src), "dst", strconv.Itoa(dst)).Add(n)
			}
		}
	}
	if ws.nRejects > 0 {
		reg.Counter("ged_shard_finalize_rejects_total",
			"complete bindings rejected at global finalization").Add(ws.nRejects)
	}
}

func (ws *wstate) loop() {
	r := ws.r
	for {
		sh, f, ok := r.next(ws.home)
		if !ok {
			return
		}
		if ws.ctx.Err() == nil {
			cr := r.rules[f.rule]
			ws.extend(sh, cr, int(f.oi), int(f.si), f.bind)
		}
		// Deliver buffered frames before retiring this one, so the
		// pending count can never hit zero with work still buffered.
		ws.flush()
		r.retire()
	}
}

// next pops a frame: the worker's home queue first, then steals. Blocks
// until work arrives or the search drains.
func (r *runner) next(home int) (int, frame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.pending == 0 || r.failed != nil {
			r.cond.Broadcast()
			return 0, frame{}, false
		}
		for i := 0; i < r.sh.p; i++ {
			q := (home + i) % r.sh.p
			if n := len(r.queues[q]); n > 0 {
				f := r.queues[q][n-1]
				r.queues[q][n-1] = frame{}
				r.queues[q] = r.queues[q][:n-1]
				return q, f, true
			}
		}
		r.cond.Wait()
	}
}

// retire marks one popped frame fully processed.
func (r *runner) retire() {
	r.mu.Lock()
	r.pending--
	done := r.pending == 0
	r.mu.Unlock()
	if done {
		r.cond.Broadcast()
	}
}

func (ws *wstate) flush() {
	if ws.outN == 0 {
		return
	}
	r := ws.r
	r.mu.Lock()
	for q := range ws.out {
		if len(ws.out[q]) > 0 {
			r.queues[q] = append(r.queues[q], ws.out[q]...)
			r.pending += len(ws.out[q])
			ws.out[q] = ws.out[q][:0]
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	ws.outN = 0
}

// emit buffers a frame for dst (or broadcast when dst < 0), copying the
// binding vector — the caller keeps mutating its own. src is the shard
// whose snapshot produced the frame, for the traffic matrix.
func (ws *wstate) emit(src, dst int, ri, oi, si int, bind []graph.NodeID) {
	f := frame{rule: int32(ri), oi: int32(oi), si: int32(si),
		bind: append([]graph.NodeID(nil), bind...)}
	if dst >= 0 {
		ws.out[dst] = append(ws.out[dst], f)
		ws.outN++
		if ws.nFrames != nil {
			ws.nFrames[src*ws.r.sh.p+dst]++
		}
	} else {
		for q := 0; q < ws.r.sh.p; q++ {
			g := f
			if q > 0 {
				g.bind = append([]graph.NodeID(nil), f.bind...)
			}
			ws.out[q] = append(ws.out[q], g)
			ws.outN++
			if ws.nFrames != nil {
				ws.nFrames[src*ws.r.sh.p+q]++
			}
		}
	}
	if ws.outN >= 128 {
		ws.flush()
	}
}

// extend runs step si of order oi at shard sh, recursing locally while
// the next step's anchor stays on this shard and shipping the partial
// binding otherwise — the WCO matcher's extension loop, with shard
// queues between steps.
func (ws *wstate) extend(sh int, cr *compiledRule, oi, si int, bind []graph.NodeID) {
	order := cr.orders[oi]
	if si >= len(order) {
		ws.finalize(cr, bind)
		return
	}
	st := &cr.steps[oi][si]
	snap := ws.r.sh.snaps[sh]
	if len(st.anchors) == 0 {
		// No bound neighbor: this shard extends over the label
		// candidates it owns (ownership partitions the candidate space
		// across the broadcast, so nothing is found twice).
		for _, c := range snap.CandidateNodes(cr.labels[st.v]) {
			if int(ws.r.sh.owner[c]) != sh {
				continue
			}
			ws.tryCandidate(sh, cr, oi, si, st, bind, c)
		}
		return
	}
	a := st.anchors[0]
	an := bind[a.other]
	var cands []graph.NodeID
	if a.out {
		cands = snap.OutNeighbors(an, a.label)
	} else {
		cands = snap.InNeighbors(an, a.label)
	}
	for _, c := range cands {
		if !graph.LabelMatches(cr.labels[st.v], snap.Label(c)) {
			continue
		}
		ws.tryCandidate(sh, cr, oi, si, st, bind, c)
	}
}

// tryCandidate checks candidate c against the step's remaining
// constraints tri-state — prune only on locally definitive failure,
// defer the rest to global finalization — then binds it and descends.
func (ws *wstate) tryCandidate(sh int, cr *compiledRule, oi, si int, st *step, bind []graph.NodeID, c graph.NodeID) {
	ws.ticks++
	if ws.ticks&1023 == 0 && ws.ctx.Err() != nil {
		return
	}
	snap := ws.r.sh.snaps[sh]
	owner := ws.r.sh.owner
	// anchors[0] (when present) generated the candidates; the rest are
	// constraint checks.
	rest := st.anchors
	if len(rest) > 0 {
		rest = rest[1:]
	}
	for _, a := range rest {
		var has bool
		if a.out {
			has = edgeHas(snap, bind[a.other], a.label, c)
		} else {
			has = edgeHas(snap, c, a.label, bind[a.other])
		}
		if !has && (int(owner[c]) == sh || int(owner[bind[a.other]]) == sh) {
			return // an owned endpoint makes the absence definitive
		}
	}
	for _, l := range st.selfLoops {
		if !edgeHas(snap, c, l, c) && int(owner[c]) == sh {
			return
		}
	}
	if len(cr.filters[st.v]) > 0 && ws.r.sh.known[sh][c] {
		for _, fl := range cr.filters[st.v] {
			v, ok := snap.Attr(c, fl.Attr)
			if !ok || !v.Equal(fl.Value) {
				return // attribute state is locally complete: definitive
			}
		}
	}
	bind[st.v] = c
	order := cr.orders[oi]
	if si+1 >= len(order) {
		ws.finalize(cr, bind)
	} else {
		nst := &cr.steps[oi][si+1]
		if len(nst.anchors) == 0 {
			ws.emit(sh, -1, cr.idx, oi, si+1, bind)
		} else if dst := int(owner[bind[nst.anchors[0].other]]); dst == sh {
			ws.extend(sh, cr, oi, si+1, bind)
		} else {
			ws.emit(sh, dst, cr.idx, oi, si+1, bind)
		}
	}
	bind[st.v] = unbound
}

// finalize verifies a complete binding against the shared global
// snapshot: every pattern edge (resolving the deferred tri-state
// checks; labels were definitive during enumeration), the antecedent,
// and the first failing consequent literal — the same answers the
// monolithic validator gives, from the compiled rule it judges bindings
// with, so no match map is built for the non-violating majority. Confirmed
// violations bucket by the first variable binding's owner: every
// duplicate find of a match (the pivoted orders can reach one match
// from several pivots) lands in the same destination store, whose key
// set collapses them.
func (ws *wstate) finalize(cr *compiledRule, bind []graph.NodeID) {
	g := ws.r.global
	for _, e := range cr.pedges {
		if !edgeHas(g, bind[e.src], e.label, bind[e.dst]) {
			ws.nRejects++
			return
		}
	}
	fail := ws.r.lits[cr.idx].CheckMatch(g, bind)
	if fail == nil {
		ws.nRejects++
		return
	}
	dst := 0
	if len(bind) > 0 {
		dst = int(ws.r.sh.owner[bind[0]])
	}
	ws.buckets[dst] = append(ws.buckets[dst],
		reason.Violation{GED: cr.d, Match: cr.d.Pattern.MatchOf(bind), Literal: *fail})
}

func edgeHas(snap *graph.Snapshot, src graph.NodeID, l graph.Label, dst graph.NodeID) bool {
	if l == graph.Wildcard {
		return snap.HasAnyEdge(src, dst)
	}
	return snap.HasEdge(src, l, dst)
}

func newBind(n int) []graph.NodeID {
	b := make([]graph.NodeID, n)
	for i := range b {
		b[i] = unbound
	}
	return b
}
