package reason

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// scanParallel is the data-parallel search: one plan per GED shared by
// all workers, tasks are candidate blocks of the GED's pivot variable.
// Hits come back in no particular order — except from a single worker,
// which is the plain sequential scan.
func (v *Validator) scanParallel(ctx context.Context, workers int) ([]hit, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return v.scan(ctx, 0)
	}
	v.ensurePivots()
	type task struct {
		gi    int
		pivot pattern.Var
		cands []graph.NodeID // nil means "run unpartitioned"
	}
	var tasks []task
	for gi := range v.sigma {
		if _, skip := v.pruner(gi); skip {
			continue
		}
		pv, cands := v.pivot(gi)
		if pv == "" {
			tasks = append(tasks, task{gi: gi})
			continue
		}
		blocks := workers * 4
		block := (len(cands) + blocks - 1) / blocks
		if block == 0 {
			block = 1
		}
		for lo := 0; lo < len(cands); lo += block {
			hi := lo + block
			if hi > len(cands) {
				hi = len(cands)
			}
			tasks = append(tasks, task{gi: gi, pivot: pv, cands: cands[lo:hi]})
		}
	}

	ch := make(chan task, len(tasks))
	for _, t := range tasks {
		ch <- t
	}
	close(ch)

	var mu sync.Mutex
	var out []hit
	var wg sync.WaitGroup
	stop := func() bool { return ctx.Err() != nil }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local hits
			for t := range ch {
				if ctx.Err() != nil {
					break
				}
				prune, _ := v.pruner(t.gi)
				visit := func(bind []graph.NodeID) bool {
					if ctx.Err() != nil {
						return false
					}
					if l := v.checkMatch(t.gi, bind); l != nil {
						local.add(t.gi, bind, l)
					}
					return true
				}
				if t.cands == nil {
					v.plans[t.gi].ForEachDenseCancel(stop, prune, visit)
					continue
				}
				v.plans[t.gi].ForEachDensePivotCancel(t.pivot, t.cands, stop, prune, visit)
			}
			if len(local.list) > 0 {
				mu.Lock()
				out = append(out, local.list...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// pivot selects the partitioning variable of Σ[gi]'s match space. The
// most selective constant literal of the antecedent is pushed down into
// the folded-in attribute index first — matches outside its postings
// cannot satisfy the antecedent, so restricting the pivot to them loses
// no violations; when no constant literal beats the label postings the
// label-based pivotVar is used.
func (v *Validator) pivot(gi int) (pattern.Var, []graph.NodeID) {
	if p := v.pivots[gi]; p != nil {
		return p.variable, p.cands
	}
	return pivotVar(v.sigma[gi].Pattern, v.snap)
}

// pivotVar picks the variable with the smallest candidate set, breaking
// ties toward the label with the higher average degree, and returns its
// candidates. An empty pattern returns "".
func pivotVar(p *pattern.Pattern, snap *graph.Snapshot) (pattern.Var, []graph.NodeID) {
	var best pattern.Var
	var bestCands []graph.NodeID
	for _, v := range p.Vars() {
		c := snap.CandidateNodes(p.Label(v))
		switch {
		case best == "" || len(c) < len(bestCands):
			best, bestCands = v, c
		case len(c) == len(bestCands) && snap.LabelAvgDegree(p.Label(v)) > snap.LabelAvgDegree(p.Label(best)):
			best, bestCands = v, c
		}
	}
	return best, bestCands
}

// appendViolationKey appends the canonical within-GED sort key of v —
// the match bindings in variable order — to buf. The ViolationStore
// precomputes and caches these keys so its per-delta maintenance never
// re-strings the stored set.
func appendViolationKey(buf []byte, v Violation) []byte {
	for _, x := range v.GED.Pattern.Vars() {
		buf = append(buf, string(x)...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(v.Match[x]), 10)
		buf = append(buf, ';')
	}
	return buf
}

// sortViolations puts violations into the canonical order every
// validation API reports: by GED index in sigma, then by the match
// bindings in variable order. The per-violation keys are computed once
// up front — not inside the comparator, which would redo the
// strconv/concat work O(n log n) times.
func sortViolations(vs []Violation, sigma ged.Set) {
	if len(vs) < 2 {
		return
	}
	idx := make(map[*ged.GED]int, len(sigma))
	for i, d := range sigma {
		idx[d] = i
	}
	type keyed struct {
		gi  int
		key string
		v   Violation
	}
	ks := make([]keyed, len(vs))
	var buf []byte
	for i, v := range vs {
		buf = appendViolationKey(buf[:0], v)
		ks[i] = keyed{gi: idx[v.GED], key: string(buf), v: v}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].gi != ks[j].gi {
			return ks[i].gi < ks[j].gi
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		vs[i] = ks[i].v
	}
}
