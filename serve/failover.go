package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// PromoteResult reports a completed follower-to-leader promotion.
type PromoteResult struct {
	// Promoted lists the graphs now accepting writes, sorted.
	Promoted []string `json:"promoted"`
	// Epoch is the highest leadership epoch now held.
	Epoch uint64 `json:"epoch"`
	// RTONanos is the wall time of the whole promotion — write
	// unavailability actually paid, tail stop through batchers accepting.
	RTONanos int64 `json:"rto_ns"`
}

// Promote turns a follower catalog into the leader of its data
// directory. Per graph: the tail loop is stopped, the WAL is drained to
// its end and the leadership epoch bumped behind a crash-atomic fence
// bound (persist.Store.Promote — after which the old leader's appends
// fail their fence check before being acked), the entry is reset onto
// the drained state, and a write batcher starts. Graphs whose promotion
// fails individually degrade and are skipped — the next Promote call
// retries exactly those — while the rest come up writable; the first
// such error is returned alongside the successes.
//
// Promoting a catalog with no follower graphs fails with ErrNotFollower
// (an already-promoted catalog is not re-promoted, so the call is
// idempotent but not silently so).
func (c *Catalog) Promote(ctx context.Context) (PromoteResult, error) {
	var res PromoteResult
	if c.store == nil {
		return res, errors.New("serve: Promote requires Config.DataDir")
	}
	c.roleMu.Lock()
	defer c.roleMu.Unlock()
	start := time.Now()
	// Stop the tails first: promotion drains each WAL to its end and
	// resets the entries, and a live tail loop would race both.
	c.stopFollowing()
	c.mu.RLock()
	ents := make([]*GraphEntry, 0, len(c.entries))
	for _, e := range c.entries {
		if e.life.Load().row().role == "follower" {
			ents = append(ents, e)
		}
	}
	c.mu.RUnlock()
	if len(ents) == 0 && !c.follower.Load() {
		return res, ErrNotFollower
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	var firstErr error
	for _, ent := range ents {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		gs, rec, err := c.store.Promote(ent.name)
		if err == nil {
			if rerr := ent.resetTo(rec.State); rerr != nil {
				_ = gs.Close()
				err = rerr
			}
		}
		if err != nil {
			ent.on(evPromoteFail, fmt.Errorf("promote: %w", err))
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: promote %q: %w", ent.name, err)
			}
			continue
		}
		// The handle and batcher land before the state turns leader-ok:
		// a writable entry always has both.
		ent.ps.Store(gs)
		ent.startBatcher()
		ent.on(evPromote, nil)
		if gs.Epoch() > res.Epoch {
			res.Epoch = gs.Epoch()
		}
		res.Promoted = append(res.Promoted, ent.name)
	}
	// The catalog is a leader from here on: rescans stop (no rescanLoop
	// is running anymore) and Create/Delete/writes are accepted.
	c.follower.Store(false)
	rto := time.Since(start)
	res.RTONanos = rto.Nanoseconds()
	for _, name := range res.Promoted {
		if ent, err := c.Get(name); err == nil {
			ent.promotionNanos.Store(res.RTONanos)
		}
	}
	if len(res.Promoted) > 0 {
		c.mPromotions.Inc()
		c.hPromotion.Observe(rto)
	}
	return res, firstErr
}

// Demote reboots the catalog as a follower of whatever leadership epoch
// now owns its data directory: every entry drains its pending writes
// and closes (a fenced entry's parting checkpoint is refused by the
// persist-level fence, which is the point — it must not overwrite the
// new leader's lineage), then the store is re-recovered read-only with
// tail loops running, exactly as Follow at boot. The deposed leader
// thereby rejoins the new epoch instead of serving its stale last view
// forever. Demoting a catalog that is already a follower is a no-op.
// ctx governs the new tails' lifetime, not just the call.
func (c *Catalog) Demote(ctx context.Context) error {
	if c.store == nil {
		return errors.New("serve: Demote requires Config.DataDir")
	}
	c.roleMu.Lock()
	defer c.roleMu.Unlock()
	if c.follower.Load() {
		return nil
	}
	for _, e := range c.takeAll() {
		e.retire(false)
	}
	return c.Follow(ctx)
}
