package reason

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// morselsPerWorker is how many morsels each rule's seeds are cut into
// per worker: enough that a worker finishing early finds more work
// while a skewed morsel still runs, few enough that per-morsel set-up
// stays negligible.
const morselsPerWorker = 8

// scanParallel is scan cut into morsels (Leis et al., "Morsel-driven
// parallelism", SIGMOD 2014). Each rule's seeds — the candidates of its
// plan's first variable — are cut into consecutive ranges, workers pull
// the ranges from one counter and search each in the plan's own order,
// and the hits are concatenated in range order: scan's sequence, for any
// worker count. A positive limit keeps its prefix: each morsel stops at
// limit hits, and no morsel starts once the finished ones before it
// hold limit. On cancellation the result is a prefix of that sequence
// too: the finished morsels up to the first one that was cut short or
// never started, plus what that one found. workers <= 0 selects
// GOMAXPROCS; one worker is scan itself.
//
// finish turns one morsel's hits into the caller's results, one for
// one, on the worker that found them: RunParallelCtx materializes its
// violations there, which would otherwise be a serial tail of every
// parallel scan (about a sixth of a one-worker validate_cyclic op). The
// hits are the worker's scratch, reused for its next morsel: finish
// copies out what it keeps.
func scanParallel[T any](ctx context.Context, v *Validator, limit, workers int, finish func([]hit) []T) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		hs := getHits()
		defer hs.release()
		err := v.scan(ctx, limit, hs)
		return finish(hs.list), err
	}
	type morsel struct{ gi, lo, hi int }
	var ms []morsel
	seeds := v.seedLists()
	for gi := range v.sigma {
		if _, skip := v.pruner(gi); skip {
			continue
		}
		n := seeds[gi].Len()
		size := max(1, (n+workers*morselsPerWorker-1)/(workers*morselsPerWorker))
		for lo := 0; lo < n; lo += size {
			ms = append(ms, morsel{gi: gi, lo: lo, hi: min(lo+size, n)})
		}
	}

	found := make([][]T, len(ms))
	finished := make([]bool, len(ms))
	var next atomic.Int64
	var enough atomic.Bool
	var mu sync.Mutex
	prefix, prefixHits := 0, 0 // morsels [0, prefix) are finished
	stop := func() bool { return ctx.Err() != nil }
	var wg sync.WaitGroup
	for range min(workers, len(ms)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs := getHits()
			defer hs.release()
			for !enough.Load() && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= len(ms) {
					return
				}
				mo := ms[k]
				hs.reset()
				prune, _ := v.pruner(mo.gi)
				v.plans[mo.gi].ForEachDenseRangeCancel(v.snap, seeds[mo.gi], mo.lo, mo.hi, stop, prune, func(bind []graph.NodeID) bool {
					if ctx.Err() != nil {
						return false
					}
					if l := v.checkMatch(mo.gi, bind); l != nil {
						hs.add(mo.gi, bind, l)
					}
					return limit <= 0 || len(hs.list) < limit
				})
				found[k] = finish(hs.list)
				if ctx.Err() != nil {
					return // k may have been cut short: not finished
				}
				mu.Lock()
				finished[k] = true
				for prefix < len(ms) && finished[prefix] {
					prefixHits += len(found[prefix])
					prefix++
				}
				if limit > 0 && prefixHits >= limit {
					enough.Store(true)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	n := 0
	for k := range ms {
		n += len(found[k])
	}
	out := make([]T, 0, n)
	for k := range ms {
		out = append(out, found[k]...)
		if !finished[k] {
			break
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, ctx.Err()
}

// seedLists returns each rule's full-scan seeds on the validator's
// snapshot, built once: every parallel scan of one validator cuts the
// same lists into morsels. A skipped rule has none.
func (v *Validator) seedLists() []pattern.Seeds {
	v.seedOnce.Do(func() {
		v.seeds = make([]pattern.Seeds, len(v.plans))
		for gi, pl := range v.plans {
			if _, skip := v.pruner(gi); !skip {
				v.seeds[gi] = pl.Seeds(v.snap)
			}
		}
	})
	return v.seeds
}
