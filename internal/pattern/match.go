package pattern

import (
	"slices"
	"sort"
	"sync"

	"gedlib/internal/graph"
	"gedlib/internal/obs"
)

// Match is a homomorphism h from a pattern to a graph, i.e. the vector
// h(x̄) of Section 2. Distinct variables may map to the same node.
//
// Match is the public boundary of the matcher; internally the compiled
// plan binds variables through a dense []graph.NodeID keyed by variable
// index and materializes the map only when a complete match is yielded.
type Match map[Var]graph.NodeID

// Clone returns a copy of m.
func (m Match) Clone() Match {
	c := make(Match, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// MatchOf lifts a dense binding vector — indexed like Vars(), as the
// ForEachDense* entry points deliver it — to a fresh Match.
func (p *Pattern) MatchOf(bind []graph.NodeID) Match {
	m := make(Match, len(p.vars))
	for i, x := range p.vars {
		m[x] = bind[i]
	}
	return m
}

// unbound marks an unassigned slot of the dense binding vector. Real
// node ids are non-negative.
const unbound = graph.NodeID(-1)

// labelAbsent and labelWild are the sentinel resolved-label symbols of
// compiled plans: absent means the label occurs nowhere in the
// snapshot (the edge or variable can never match), wild is the
// wildcard.
const (
	labelAbsent int32 = -2
	labelWild   int32 = -1
)

// cedge is a compiled pattern edge: endpoints resolved to variable
// indexes so the search never hashes a Var, and the edge label resolved
// to its interned symbol so the search never hashes a label either.
type cedge struct {
	src, dst int
	label    graph.Label
	lid      int32 // resolved symbol; labelWild / labelAbsent sentinels
}

// matcher holds the scratch state of one backtracking search. Matchers
// are pooled per Plan: the small per-update searches of incremental
// validation run thousands of times per second, and re-allocating the
// binding vector, dirty set, output map and candidate buffers on every
// enumeration dominates their cost.
type matcher struct {
	pl       *Plan
	snap     *graph.Snapshot           // mirrors pl.snap
	bind     []graph.NodeID            // dense partial assignment, unbound = -1
	last     []graph.NodeID            // binding each out entry currently holds
	out      Match                     // reused map handed to yield
	order    []int                     // variable indexes still to bind, in order
	orderBuf []int                     // pooled backing for filtered orders
	wild     [][]graph.NodeID          // per-variable wildcard-neighbor dedup buffers
	isect    [][]graph.NodeID          // per-variable intersection output buffers
	runs     [][][]graph.NodeID        // per-variable sorted-run collection buffers
	covered  []bool                    // candidates(x) already enforced x's bound edges+filters
	yield    func(Match) bool          // returns false to stop enumeration
	dense    func([]graph.NodeID) bool // dense-vector alternative to yield
	stop     func() bool               // polled inside the search; true aborts
	tick     uint32                    // amortizes stop polling
	done     bool

	// prune is a full scan's Pruner, else nil; closeAt[i] has bit k set
	// when its condition k closes with i variables of order bound.
	prune   Pruner
	closeAt []uint64

	// Per-enumeration profiler tallies, plain ints on the hot path;
	// flushed into Plan.prof (when attached) by putMatcher.
	nCand  uint64 // candidates examined by search
	nIsect uint64 // sorted runs walked by leapfrog intersections
	nProbe uint64 // per-candidate consistency probes
	nBind  uint64 // complete bindings materialized
	nPrune uint64 // partial bindings abandoned by prune
}

// stopEvery is how many search steps pass between stop polls: frequent
// enough that a cancelled context aborts even a match-free exponential
// search promptly, rare enough to stay off the hot path.
const stopEvery = 1024

// ConstFilter is a constant literal x.A = c pushed down into a plan:
// the enumeration then emits only matches whose binding of Var carries
// attribute Attr with exactly Value, skipping literal-failing partial
// bindings inside the search instead of post-filtering whole matches.
// The filter resolves to the snapshot's (attr, value) posting list and
// joins the candidate intersection. Filters naming variables the
// pattern does not have are ignored.
type ConstFilter struct {
	Var   Var
	Attr  graph.Attr
	Value graph.Value
}

// cfilter is a compiled pushed-down filter: the attribute resolved to
// its interned symbol and the posting list of nodes carrying (attr,
// value).
type cfilter struct {
	attr graph.Attr
	val  graph.Value
	aid  int32          // resolved attr symbol; -1 = unresolved/absent
	post []graph.NodeID // snapshot posting, ascending
}

// Pruner lets a full scan abandon partial bindings that cannot extend
// to a match its caller keeps. Its conditions are the closes the plan
// was compiled with (see CompileFiltered): the matcher works out once
// per enumeration, for the order it actually runs — pivot included —
// the depth at which each closes (its last variable is bound) and asks
// about it exactly once there. Only the first 64 conditions prune; the
// yield callback judges the rest.
type Pruner interface {
	// Prune reports whether bind can be abandoned now that the
	// conditions in mask (bit k for closes[k]) have closed.
	Prune(snap *graph.Snapshot, bind []graph.NodeID, mask uint64) bool
}

// Plan is a compiled matching plan for one (pattern, snapshot) pair:
// the variable order, symbol-resolved adjacency, pushed-down literal
// postings and binding layout are computed once and shared across any
// number of (concurrent) enumerations. Plans are immutable after
// Compile and safe for concurrent use.
type Plan struct {
	p      *Pattern
	snap   *graph.Snapshot
	vars   []Var // variable index -> variable
	varIdx map[Var]int
	labels []graph.Label // variable index -> label
	varLid []int32       // variable index -> resolved label symbol
	adj    [][]cedge     // variable index -> incident pattern edges
	order  []int         // variable binding order, as indexes

	filters []ConstFilter // pushed-down constant literals, as given
	varFilt [][]cfilter   // variable index -> compiled filters
	closes  [][]int       // variable indexes each Pruner condition reads

	// pool recycles matcher scratch across enumerations; see matcher.
	// It is a pointer so Rebind-derived plans share one pool: the
	// scratch is sized by the pattern (identical across a lineage of
	// rebinds), and sharing keeps the pool warm on the per-delta path
	// where validators rebase for every update.
	pool *sync.Pool

	// prof, when attached via SetProfile, receives every enumeration's
	// tallies; carried across Rebind so per-rule statistics accumulate
	// over a validator's whole snapshot lineage.
	prof *obs.MatchStats

	// seeds are the first variable's candidates with nothing bound, built
	// on the first range enumeration (seedList); seedCovered reports that
	// they already satisfy that variable's pushed-down literals.
	seedOnce    sync.Once
	seeds       []graph.NodeID
	seedCovered bool
}

// Compile prepares a matching plan for p over snap.
func Compile(p *Pattern, snap *graph.Snapshot) *Plan {
	return CompileFiltered(p, snap, nil, nil)
}

// CompileFiltered is Compile with constant literals pushed down into
// the plan: enumeration skips bindings that fail them, so callers that
// would post-filter matches on x.A = c literals (validators checking a
// GED's antecedent) never enumerate the failing matches at all. Each
// filter resolves to the attribute-value index's posting list and
// candidate generation intersects it alongside the adjacency runs.
//
// closes lists the positions in Vars() that each condition of the
// caller's Pruner reads: closes[0] the one whose truth settles a binding
// (a GED's consequent, Y in Fingerprint), the rest those whose falsity
// refutes it (antecedent literals X1, X2, …). The planner breaks ties
// toward variables that close one, Pruner or no Pruner.
func CompileFiltered(p *Pattern, snap *graph.Snapshot, filters []ConstFilter, closes [][]int) *Plan {
	n := len(p.vars)
	pl := &Plan{
		p:       p,
		snap:    snap,
		vars:    p.vars,
		varIdx:  make(map[Var]int, n),
		labels:  make([]graph.Label, n),
		adj:     make([][]cedge, n),
		varFilt: make([][]cfilter, n),
		closes:  closes,
		pool:    new(sync.Pool),
	}
	resolve := func(l graph.Label) int32 {
		if l == graph.Wildcard {
			return labelWild
		}
		if lid, ok := snap.LabelID(l); ok {
			return lid
		}
		return labelAbsent
	}
	pl.varLid = make([]int32, n)
	for i, x := range p.vars {
		pl.varIdx[x] = i
		pl.labels[i] = p.labels[x]
		pl.varLid[i] = resolve(p.labels[x])
	}
	for _, e := range p.edges {
		ce := cedge{src: pl.varIdx[e.Src], dst: pl.varIdx[e.Dst], label: e.Label, lid: resolve(e.Label)}
		pl.adj[ce.src] = append(pl.adj[ce.src], ce)
		if ce.dst != ce.src {
			pl.adj[ce.dst] = append(pl.adj[ce.dst], ce)
		}
	}
	if len(filters) > 0 {
		pl.filters = append([]ConstFilter(nil), filters...)
		for _, f := range pl.filters {
			i, ok := pl.varIdx[f.Var]
			if !ok {
				continue
			}
			cf := cfilter{attr: f.Attr, val: f.Value, aid: -1}
			if aid, ok := snap.AttrID(f.Attr); ok {
				cf.aid = aid
				cf.post = snap.LookupAttrID(aid, f.Value)
			}
			pl.varFilt[i] = append(pl.varFilt[i], cf)
		}
	}
	pl.order = planOrder(pl)
	return pl
}

// Rebind returns a plan equivalent to pl but bound to snap, an
// immutable snapshot of the same lineage as the plan's own (i.e. one
// produced from it by graph.Snapshot.Apply, in any number of steps).
// Within a lineage symbol ids are append-only, so the compiled variable
// order and adjacency carry over unchanged; only label symbols that
// were absent at Compile time are re-resolved — a delta may have
// interned them since. The cost is proportional to the pattern, never
// the graph, which is what lets validators follow a delta-maintained
// snapshot without recompiling.
//
// Rebinding onto an unrelated snapshot corrupts label resolution
// silently; callers are expected to check Lineage, as
// reason.Validator.Rebase does.
func (pl *Plan) Rebind(snap *graph.Snapshot) *Plan {
	if snap == pl.snap {
		return pl
	}
	np := &Plan{
		p:       pl.p,
		snap:    snap,
		vars:    pl.vars,
		varIdx:  pl.varIdx,
		labels:  pl.labels,
		varLid:  pl.varLid,
		adj:     pl.adj,
		order:   pl.order,
		filters: pl.filters,
		varFilt: pl.varFilt,
		closes:  pl.closes,
		pool:    pl.pool, // same pattern, same scratch shape: stay warm
		prof:    pl.prof, // profile accumulates across the lineage
	}
	// Pushed-down postings are per-snapshot: attr symbols carry over
	// (append-only within a lineage, re-resolved if they appeared since
	// Compile) but the posting contents move with every Apply, so they
	// are re-fetched here. Compile declared each pair on the lineage and
	// Apply keeps it current, so a re-fetch is one map read.
	if len(pl.filters) > 0 {
		nf := make([][]cfilter, len(pl.varFilt))
		for i, fs := range pl.varFilt {
			if len(fs) == 0 {
				continue
			}
			cs := make([]cfilter, len(fs))
			copy(cs, fs)
			for k := range cs {
				if cs[k].aid < 0 {
					if aid, ok := snap.AttrID(cs[k].attr); ok {
						cs[k].aid = aid
					}
				}
				if cs[k].aid >= 0 {
					cs[k].post = snap.LookupAttrID(cs[k].aid, cs[k].val)
				}
			}
			nf[i] = cs
		}
		np.varFilt = nf
	}
	resolve := func(l graph.Label) int32 {
		if l == graph.Wildcard {
			return labelWild
		}
		if lid, ok := snap.LabelID(l); ok {
			return lid
		}
		return labelAbsent
	}
	for i, lid := range pl.varLid {
		if lid != labelAbsent {
			continue
		}
		if resolve(pl.labels[i]) == labelAbsent {
			continue
		}
		// A previously-absent symbol exists now: re-resolve the whole
		// (tiny) table once.
		nv := make([]int32, len(pl.varLid))
		for j := range nv {
			nv[j] = resolve(pl.labels[j])
		}
		np.varLid = nv
		break
	}
	for x := range pl.adj {
		for _, e := range pl.adj[x] {
			if e.lid != labelAbsent || resolve(e.label) == labelAbsent {
				continue
			}
			// Same for edge labels: clone the adjacency with fresh
			// resolutions.
			nadj := make([][]cedge, len(pl.adj))
			for y := range pl.adj {
				es := make([]cedge, len(pl.adj[y]))
				copy(es, pl.adj[y])
				for k := range es {
					es[k].lid = resolve(es[k].label)
				}
				nadj[y] = es
			}
			np.adj = nadj
			return np
		}
	}
	return np
}

// newMatcher checks the plan's pool for recycled per-enumeration state —
// the dense binding vector, dirty set, output map and candidate
// buffers — and allocates it only on a cold pool. Callers must hand the
// matcher back with putMatcher when the enumeration ends.
func (pl *Plan) newMatcher(stop func() bool, yield func(Match) bool) *matcher {
	m, ok := pl.pool.Get().(*matcher)
	if !ok {
		m = &matcher{
			bind:    make([]graph.NodeID, len(pl.vars)),
			last:    make([]graph.NodeID, len(pl.vars)),
			covered: make([]bool, len(pl.vars)),
			out:     make(Match, len(pl.vars)),
		}
	}
	// The pool is shared across same-lineage rebinds, so a recycled
	// matcher may carry a predecessor plan; re-point it every time.
	m.pl, m.snap = pl, pl.snap
	m.yield = yield
	m.stop = stop
	m.tick = 0
	m.done = false
	// The out map may carry entries from a previous run; they are all
	// overwritten before the next yield because every last slot resets
	// to unbound, and a yield only ever happens with every variable
	// bound.
	for i := range m.bind {
		m.bind[i] = unbound
		m.last[i] = unbound
		m.covered[i] = false
	}
	return m
}

// putMatcher returns scratch to the plan's pool, dropping the caller's
// closures — and the plan/snapshot references, which would otherwise
// pin a superseded snapshot's COW pages across rebinds — so the pool
// never pins them. newMatcher re-points them on every Get.
func (pl *Plan) putMatcher(m *matcher) {
	pl.flushProfile(m)
	m.yield = nil
	m.dense = nil
	m.stop = nil
	m.prune = nil
	m.pl = nil
	m.snap = nil
	// The run-collection buffers hold views into snapshot CSR storage;
	// nil them so a pooled matcher never pins a superseded snapshot's
	// pages (the buffers themselves — a few slice headers per variable —
	// stay recycled).
	for x := range m.runs {
		rs := m.runs[x]
		for j := range rs {
			rs[j] = nil
		}
		m.runs[x] = rs[:0]
	}
	pl.pool.Put(m)
}

// wildBuf returns variable x's recycled wildcard-neighbor buffer,
// emptied. Buffers are per variable because candidate slices stay live
// while deeper search levels compute theirs.
func (m *matcher) wildBuf(x int) []graph.NodeID {
	if m.wild == nil {
		m.wild = make([][]graph.NodeID, len(m.pl.vars))
	}
	return m.wild[x][:0]
}

// runsBuf returns variable x's recycled sorted-run collection buffer,
// emptied; isectBuf its intersection output buffer. Both are per
// variable for the same reason as wildBuf: a level's candidate slice
// stays live while deeper levels compute theirs.
func (m *matcher) runsBuf(x int) [][]graph.NodeID {
	if m.runs == nil {
		m.runs = make([][][]graph.NodeID, len(m.pl.vars))
	}
	return m.runs[x][:0]
}

func (m *matcher) isectBuf(x int) []graph.NodeID {
	if m.isect == nil {
		m.isect = make([][]graph.NodeID, len(m.pl.vars))
	}
	return m.isect[x][:0]
}

// candFail is the empty-candidate-set exit of candidates: it hands
// a non-nil run collection buffer back to its per-variable slot (so
// its capacity is recycled) and yields no candidates.
func (m *matcher) candFail(x int, runs [][]graph.NodeID) []graph.NodeID {
	if runs != nil {
		m.runs[x] = runs
	}
	return nil
}

// ForEachDenseCancel enumerates every match as its dense binding
// vector, indexed by the position of each variable in the pattern's
// Vars() order — no Match map is materialized. The vector is the
// matcher's own scratch: read it during the callback, copy it to
// retain it. stop (when non-nil) is polled periodically *inside* the
// backtracking search, so even an exponential exploration that never
// completes a match can be cut short; enumeration ends when it returns
// true. prune, when non-nil, abandons partial bindings (see Pruner).
//
// The empty pattern has exactly one (empty) match, delivered through
// the same search path as every other pattern, so the callback's
// "return false to stop" verdict applies uniformly.
//
// This is the entry point for high-volume consumers (the chase's
// fixpoint loop) where the per-match map handling of the Match boundary
// dominates.
func (pl *Plan) ForEachDenseCancel(stop func() bool, prune Pruner, yield func([]graph.NodeID) bool) {
	m := pl.newMatcher(stop, nil)
	m.dense = yield
	defer pl.putMatcher(m)
	m.order = pl.order
	m.setPruner(prune)
	if m.prune == nil || !m.abandon(0) {
		m.search(0)
	}
}

// ForEachDensePivotCancel enumerates matches with the pivot variable
// successively bound to each candidate, reusing one matcher across the
// whole block and delivering each match as the dense binding vector of
// ForEachDenseCancel (the pivot's slot included) — the low-overhead
// primitive behind touched-neighborhood validation, which judges every
// match but keeps only the violating few. Candidates that
// violate the pivot's label or incident edges are skipped; a pivot the
// pattern does not have yields nothing. stop is the cooperative abort
// hook of ForEachDenseCancel; prune is the full scans' Pruner, nil for
// the touched-neighborhood search.
//
// Pivot candidates are intersected with the pivot's pushed-down literal
// postings up front when the candidate list is sorted (it usually is:
// label postings and attribute-value postings both arrive ascending);
// unsorted candidate lists fall back to the per-candidate literal check
// in consistent.
func (pl *Plan) ForEachDensePivotCancel(pivot Var, cands []graph.NodeID, stop func() bool, prune Pruner, yield func([]graph.NodeID) bool) {
	pi, ok := pl.varIdx[pivot]
	if !ok {
		return
	}
	m := pl.newMatcher(stop, nil)
	m.dense = yield
	defer pl.putMatcher(m)
	cands = m.pivotCands(pi, cands)
	order := m.orderBuf[:0]
	for _, i := range pl.order {
		if i != pi {
			order = append(order, i)
		}
	}
	m.orderBuf = order
	m.order = order
	m.setPruner(prune)
	m.nCand += uint64(len(cands))
	for _, c := range cands {
		if !m.consistent(pi, c) {
			continue
		}
		m.bind[pi] = c
		if m.prune == nil || !m.abandon(0) {
			m.search(0)
		}
		m.bind[pi] = unbound
		if m.done {
			return
		}
	}
}

// setPruner arms pr, if any, for the enumeration about to run over
// m.order: a condition closes at the depth of the last variable of
// m.order it reads — 0 when the pivot, or nothing, is all it reads.
func (m *matcher) setPruner(pr Pruner) {
	if pr == nil {
		return
	}
	m.prune = pr
	m.closeAt = append(m.closeAt[:0], make([]uint64, len(m.order)+1)...)
	for k, reads := range m.pl.closes[:min(len(m.pl.closes), 64)] {
		depth := 0
		for i, x := range m.order {
			if slices.Contains(reads, x) {
				depth = i + 1
			}
		}
		m.closeAt[depth] |= 1 << k
	}
}

// abandon reports whether the pruner (there is one), asked about the
// conditions that close at depth i, drops the partial binding.
func (m *matcher) abandon(i int) bool {
	if m.closeAt[i] == 0 || !m.prune.Prune(m.snap, m.bind, m.closeAt[i]) {
		return false
	}
	m.nPrune++
	return true
}

// pivotCands narrows a pivot block to the candidates satisfying the
// pivot's pushed-down literals, by sorted intersection with their
// posting lists when the block itself is ascending. Candidates the
// filters reject would be discarded one by one by consistent anyway;
// the intersection skips them wholesale, which is what makes pivoted
// re-checks over selective literals cheap.
func (m *matcher) pivotCands(pi int, cands []graph.NodeID) []graph.NodeID {
	if len(m.pl.varFilt[pi]) == 0 || len(cands) == 0 {
		return cands
	}
	for fi := range m.pl.varFilt[pi] {
		f := &m.pl.varFilt[pi][fi]
		if f.aid < 0 || len(f.post) == 0 {
			return nil
		}
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			return cands // unsorted block: consistent filters per candidate
		}
	}
	runs := m.runsBuf(pi)
	runs = append(runs, cands)
	for fi := range m.pl.varFilt[pi] {
		runs = append(runs, m.pl.varFilt[pi][fi].post)
	}
	m.nIsect += uint64(len(runs))
	out := intersectInto(m.isectBuf(pi), runs)
	m.isect[pi] = out
	m.runs[pi] = runs
	m.covered[pi] = true // literals pre-satisfied; edges all unbound yet
	return out
}

// ForEachMatch enumerates the matches of p in snap, invoking yield for
// each. Enumeration stops early when yield returns false. The Match
// passed to yield is reused between invocations; clone it to retain it.
func ForEachMatch(p *Pattern, snap *graph.Snapshot, yield func(Match) bool) {
	ForEachMatchCancel(p, snap, nil, yield)
}

// ForEachMatchCancel is ForEachMatch with the cooperative abort hook of
// ForEachDenseCancel.
func ForEachMatchCancel(p *Pattern, snap *graph.Snapshot, stop func() bool, yield func(Match) bool) {
	pl := Compile(p, snap)
	m := pl.newMatcher(stop, yield)
	defer pl.putMatcher(m)
	m.order = pl.order
	m.search(0)
}

// planOrder chooses a variable binding order: the variable with the
// fewest candidates first — counting pushed-down literal postings, not
// just label postings, so a selective constant literal pulls its
// variable to the front — then greedily the frontier variable with the
// most edges into already-ordered variables (the intersection-tight
// choice: every such edge contributes one more sorted run to the
// extension step's intersection), breaking ties first toward a variable
// that closes a Pruner condition (the sooner one closes, the shallower
// a full scan abandons what it decides), then toward small candidate
// sets. Disconnected components are started at their most selective
// variable. Remaining ties go toward the label with the higher average
// degree — a better-connected seed prunes its neighborhood harder.
func planOrder(pl *Plan) []int {
	n := len(pl.vars)
	snap := pl.snap
	candCount := func(i int) int {
		c := 0
		if pl.labels[i] == graph.Wildcard {
			c = snap.NumNodes()
		} else {
			c = len(snap.CandidateNodes(pl.labels[i]))
		}
		for fi := range pl.varFilt[i] {
			f := &pl.varFilt[i][fi]
			if f.aid < 0 {
				return 0
			}
			if len(f.post) < c {
				c = len(f.post)
			}
		}
		return c
	}
	avgDeg := func(i int) float64 {
		return snap.LabelAvgDegree(pl.labels[i])
	}
	// better reports whether variable a is the more attractive next
	// binding than b: fewer candidates, then higher average degree, then
	// name for determinism.
	better := func(a, b int) bool {
		ca, cb := candCount(a), candCount(b)
		if ca != cb {
			return ca < cb
		}
		da, db := avgDeg(a), avgDeg(b)
		if da != db {
			return da > db
		}
		return pl.vars[a] < pl.vars[b]
	}

	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, e := range pl.adj[i] {
			if e.src == i && e.dst != i {
				neighbors[i] = append(neighbors[i], e.dst)
			}
			if e.dst == i && e.src != i {
				neighbors[i] = append(neighbors[i], e.src)
			}
		}
	}

	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	sort.Slice(remaining, func(x, y int) bool { return better(remaining[x], remaining[y]) })

	ordered := make([]int, 0, n)
	placed := make([]bool, n)
	frontier := make(map[int]bool)
	place := func(x int) {
		ordered = append(ordered, x)
		placed[x] = true
		delete(frontier, x)
		for _, y := range neighbors[x] {
			if !placed[y] {
				frontier[y] = true
			}
		}
	}

	// tightness counts x's pattern edges into already-placed variables:
	// each is one more sorted run in x's extension intersection.
	tightness := func(x int) int {
		t := 0
		for _, y := range neighbors[x] {
			if placed[y] {
				t++
			}
		}
		return t
	}

	// closes reports whether x is the last unplaced variable some
	// Pruner condition reads.
	closes := func(x int) bool {
		return slices.ContainsFunc(pl.closes, func(reads []int) bool {
			return slices.Contains(reads, x) &&
				!slices.ContainsFunc(reads, func(r int) bool { return r != x && !placed[r] })
		})
	}

	for len(ordered) < n {
		next, nextTight, nextCloses := -1, -1, false
		if len(frontier) > 0 {
			for x := range frontier {
				t := tightness(x)
				c := closes(x)
				if next < 0 || t > nextTight || (t == nextTight && (c && !nextCloses || c == nextCloses && better(x, next))) {
					next, nextTight, nextCloses = x, t, c
				}
			}
		} else {
			for _, x := range remaining {
				if !placed[x] {
					next = x
					break
				}
			}
		}
		place(next)
	}
	return ordered
}

// search binds the variable at position i of the order and recurses.
func (m *matcher) search(i int) {
	if m.done {
		return
	}
	if m.stop != nil {
		m.tick++
		if m.tick%stopEvery == 0 && m.stop() {
			m.done = true
			return
		}
	}
	if i == len(m.order) {
		m.emit()
		return
	}
	x := m.order[i]
	cands := m.candidates(x)
	m.nCand += uint64(len(cands))
	if m.prune != nil && m.closeAt[i+1] != 0 {
		m.extendPruned(i, x, cands)
		return
	}
	for _, v := range cands {
		if !m.consistent(x, v) {
			continue
		}
		m.bind[x] = v
		m.search(i + 1)
		m.bind[x] = unbound
		if m.done {
			return
		}
	}
}

// extendPruned is search's candidate loop for a level at which a Pruner
// condition closes: a second loop selected once per level, not a test
// inside the first, because one extra `mask != 0 &&` in search's loop
// body cost the unpruned touched search (apply_stream) 8–12 % ops_per_s
// at zero prune calls and identical candidate counts — code layout, not
// work (benchmark/README.md, "Sandbox caveat").
func (m *matcher) extendPruned(i, x int, cands []graph.NodeID) {
	for _, v := range cands {
		if !m.consistent(x, v) {
			continue
		}
		m.bind[x] = v
		if !m.abandon(i + 1) {
			m.search(i + 1)
		}
		m.bind[x] = unbound
		if m.done {
			return
		}
	}
}

// emit delivers a complete assignment. Dense consumers receive the
// binding vector itself (indexed by variable position, not retained);
// map consumers get the reused Match map, into which only bindings that
// changed since the previous emit are written back: between consecutive
// leaves of a deep search only the innermost variables move, so most
// string-keyed map writes are skipped. At a leaf every variable is
// bound, so the map never carries stale entries.
func (m *matcher) emit() {
	m.nBind++
	if m.dense != nil {
		if !m.dense(m.bind) {
			m.done = true
		}
		return
	}
	for i, x := range m.pl.vars {
		if m.last[i] != m.bind[i] {
			m.out[x] = m.bind[i]
			m.last[i] = m.bind[i]
		}
	}
	if !m.yield(m.out) {
		m.done = true
	}
}

// candidates returns the nodes that variable index x may be bound to —
// the worst-case-optimal extension step: collect the sorted CSR
// adjacency run of every bound concrete-labeled incident edge plus the
// pushed-down literal postings, and leapfrog-intersect them, so the
// candidates satisfy every such edge and literal by construction. With
// one eligible run the run itself is returned (zero copy) — the
// smallest, since it is the only one. Wildcard-labeled incident edges
// cannot feed the intersection (their neighbor sets are merged across
// label runs, not sorted) and stay residual checks in consistent,
// unless they are the only bound edges, in which case the deduped
// neighbor buffer of the smallest bound neighborhood is used.
// Node-label compatibility is checked by consistent.
func (m *matcher) candidates(x int) []graph.NodeID {
	m.covered[x] = false
	pl := m.pl
	// run0 carries the first sorted run; the collection buffer is only
	// touched once a second run shows up, keeping the dominant
	// single-bound-edge case free of bookkeeping.
	var run0 []graph.NodeID
	var runs [][]graph.NodeID
	nAdj := 0
	// The smallest-neighborhood bound wildcard edge, kept as the
	// fallback candidate source when no sorted run exists.
	wildEdge := -1
	wildIn := false
	var wildV graph.NodeID
	wildLen := 0
	push := func(run []graph.NodeID) {
		if run0 == nil {
			run0 = run
			return
		}
		if runs == nil {
			runs = append(m.runsBuf(x), run0)
		}
		runs = append(runs, run)
	}
	for ei := range pl.adj[x] {
		e := &pl.adj[x][ei]
		var v graph.NodeID
		var in bool
		if e.src == x && e.dst != x {
			if v = m.bind[e.dst]; v == unbound {
				continue
			}
			in = true // x -> v: candidates are in-neighbors of v
		} else if e.dst == x && e.src != x {
			if v = m.bind[e.src]; v == unbound {
				continue
			}
			in = false // v -> x: candidates are out-neighbors of v
		} else {
			continue
		}
		switch e.lid {
		case labelAbsent:
			return m.candFail(x, runs)
		case labelWild:
			deg := m.snap.OutDegree(v)
			if in {
				deg = m.snap.InDegree(v)
			}
			if wildEdge < 0 || deg < wildLen {
				wildEdge, wildIn, wildV, wildLen = ei, in, v, deg
			}
		default:
			var run []graph.NodeID
			if in {
				run = m.snap.InNeighborsID(v, e.lid)
			} else {
				run = m.snap.OutNeighborsID(v, e.lid)
			}
			if len(run) == 0 {
				return m.candFail(x, runs)
			}
			nAdj++
			push(run)
		}
	}
	// Pushed-down literal postings join the intersection; a filter whose
	// attribute or value occurs nowhere in the snapshot admits nothing.
	for fi := range pl.varFilt[x] {
		f := &pl.varFilt[x][fi]
		if f.aid < 0 || len(f.post) == 0 {
			return m.candFail(x, runs)
		}
		push(f.post)
	}
	if nAdj == 0 && run0 != nil && wildEdge < 0 {
		// Seed variable driven by its literal postings alone: fold the
		// label posting in too, so the intersection is as tight as both
		// indexes allow.
		switch lid := pl.varLid[x]; lid {
		case labelAbsent:
			return m.candFail(x, runs)
		case labelWild:
		default:
			post := m.snap.CandidateNodesID(lid)
			if len(post) == 0 {
				return m.candFail(x, runs)
			}
			push(post)
		}
	}
	if run0 == nil {
		if wildEdge >= 0 {
			// Only wildcard-labeled bound edges: fall back to the merged,
			// deduplicated neighbor buffer of the smallest neighborhood;
			// consistent probes it (and every other constraint).
			var buf []graph.NodeID
			if wildIn {
				buf = m.snap.AppendInNeighbors(m.wildBuf(x), wildV)
			} else {
				buf = m.snap.AppendOutNeighbors(m.wildBuf(x), wildV)
			}
			m.wild[x] = buf
			return buf
		}
		switch lid := pl.varLid[x]; lid {
		case labelAbsent:
			return nil
		case labelWild:
			return m.snap.Nodes()
		default:
			return m.snap.CandidateNodesID(lid)
		}
	}
	// Every concrete bound edge and every pushed-down literal is folded
	// into the candidate set; consistent skips re-probing them.
	m.covered[x] = true
	if runs == nil {
		return run0
	}
	m.nIsect += uint64(len(runs))
	out := intersectInto(m.isectBuf(x), runs)
	m.isect[x] = out
	m.runs[x] = runs
	return out
}

// consistent checks label compatibility of binding x↦v, x's pushed-down
// constant literals, and every pattern edge between x and already-bound
// variables (including self-loops). When the candidate came out of
// candidates' intersection (covered), the concrete bound-edge and
// pushed-down literal constraints were satisfied by construction and
// only the residual constraints — node label, self-loops,
// wildcard-labeled edges — are checked.
func (m *matcher) consistent(x int, v graph.NodeID) bool {
	m.nProbe++
	switch lid := m.pl.varLid[x]; lid {
	case labelWild:
	case labelAbsent:
		return false
	default:
		if m.snap.NodeLabelID(v) != lid {
			return false
		}
	}
	covered := m.covered[x]
	if !covered {
		for fi := range m.pl.varFilt[x] {
			f := &m.pl.varFilt[x][fi]
			if f.aid < 0 {
				return false
			}
			val, ok := m.snap.AttrValueID(v, f.aid)
			if !ok || !val.Equal(f.val) {
				return false
			}
		}
	}
	for _, e := range m.pl.adj[x] {
		var src, dst graph.NodeID
		selfLoop := false
		switch {
		case e.src == x && e.dst == x:
			src, dst = v, v
			selfLoop = true
		case e.src == x:
			dst = m.bind[e.dst]
			if dst == unbound {
				continue
			}
			src = v
		default: // e.dst == x
			src = m.bind[e.src]
			if src == unbound {
				continue
			}
			dst = v
		}
		switch e.lid {
		case labelAbsent:
			return false
		case labelWild:
			if !m.snap.HasAnyEdge(src, dst) {
				return false
			}
		default:
			if covered && !selfLoop {
				// Already enforced by the candidate intersection.
				continue
			}
			if !m.snap.HasEdgeID(src, e.lid, dst) {
				return false
			}
		}
	}
	return true
}
