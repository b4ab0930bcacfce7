package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Per-graph serving health. A degraded entry keeps serving reads from
// its last published view but rejects writes with ErrDegraded until the
// persist layer heals — either the auto-probe loop succeeds or an
// operator forces a probe via POST /graphs/{name}/enable. A fenced
// entry is a deposed leader: same read-only posture, but sticky — no
// probe can heal it, because the WAL now belongs to a newer leadership
// epoch; only rebooting as a follower (POST /demote) clears it.
const (
	healthOK int32 = iota
	healthDegraded
	healthFenced
)

// Health reports the entry's serving health: "ok", "degraded" (the
// persist layer is failing; reads only, with the causing error),
// "fenced" (a deposed leader; reads only, with the fencing error), or
// "readonly" (a healthy follower replica).
func (ent *GraphEntry) Health() (state string, cause error) {
	switch ent.health.Load() {
	case healthFenced:
		ent.healthMu.Lock()
		cause = ent.healthErr
		ent.healthMu.Unlock()
		return "fenced", cause
	case healthDegraded:
		ent.healthMu.Lock()
		cause = ent.healthErr
		ent.healthMu.Unlock()
		return "degraded", cause
	}
	if ent.follower.Load() {
		return "readonly", nil
	}
	return "ok", nil
}

// degrade marks the entry read-only because of cause and, on durable
// entries, starts the auto-probe recovery loop (at most one per entry).
// Safe to call with or without ent.mu held: health state lives behind
// its own leaf lock so the flush path, the follower tail, and Stats
// never contend on the entry lock for it.
func (ent *GraphEntry) degrade(cause error) {
	ent.healthMu.Lock()
	if ent.health.Load() == healthFenced {
		// Fenced outranks degraded: a deposed leader stays fenced no
		// matter what else its persist layer reports.
		ent.healthMu.Unlock()
		return
	}
	ent.healthErr = cause
	if ent.health.Swap(healthDegraded) == healthOK {
		ent.degradedSince = time.Now()
		ent.mDegraded.Inc()
	}
	start := ent.ps.Load() != nil && !ent.probing
	if start {
		ent.probing = true
	}
	ent.healthMu.Unlock()
	if start {
		go ent.probeLoop()
	}
}

// fence marks the entry a deposed leader: read-only because a newer
// leadership epoch owns its WAL. Unlike degrade it starts no probe loop
// — fencing is not a fault that heals; the only way out is rebooting
// the entry as a follower of the new epoch (Catalog.Demote).
func (ent *GraphEntry) fence(cause error) {
	ent.healthMu.Lock()
	ent.healthErr = cause
	if ent.health.Swap(healthFenced) != healthFenced {
		ent.mFenced.Inc()
	}
	ent.degradedSince = time.Time{}
	ent.healthMu.Unlock()
}

// setHealthy clears degraded state (counting the recovery if there was
// one to recover from). Fenced state is sticky: it never clears here —
// a probe or follower catch-up must not resurrect a deposed leader.
func (ent *GraphEntry) setHealthy() {
	ent.healthMu.Lock()
	if ent.health.Load() == healthFenced {
		ent.healthMu.Unlock()
		return
	}
	if ent.health.Swap(healthOK) == healthDegraded {
		ent.mRecoveries.Inc()
	}
	ent.healthErr = nil
	ent.degradedSince = time.Time{}
	ent.healthMu.Unlock()
}

// probeLoop retries recovery of a degraded durable entry with jittered
// exponential backoff until a probe succeeds, the entry closes, or the
// catalog shuts it down.
func (ent *GraphEntry) probeLoop() {
	defer func() {
		ent.healthMu.Lock()
		ent.probing = false
		ent.healthMu.Unlock()
	}()
	bo := newBackoff(ent.cat.cfg.ProbeInterval, 16*ent.cat.cfg.ProbeInterval)
	for {
		select {
		case <-ent.probeStop:
			return
		case <-time.After(bo.next()):
		}
		if err := ent.Probe(context.Background()); err == nil || errors.Is(err, ErrClosed) {
			return
		}
	}
}

// Probe attempts to recover a degraded entry right now: a full
// checkpoint rewrite re-anchors durability at the current in-memory
// state. That is deliberately NOT a retry of whatever failed — a failed
// fsync is never retried (the kernel may already have dropped the dirty
// pages, so a passing retry proves nothing), and any ops a failed flush
// applied in memory but never logged are rolled forward into the image.
// On success the entry publishes its current state and accepts writes
// again. A probe of a healthy entry — or of a fenced one, which no
// probe may resurrect — is a no-op.
func (ent *GraphEntry) Probe(ctx context.Context) error {
	if ent.b.Load() == nil {
		return ErrReadOnly // followers heal through their tail loop
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.closed {
		return ErrClosed
	}
	if ent.health.Load() != healthDegraded {
		return nil
	}
	ent.mProbes.Inc()
	if ps := ent.ps.Load(); ps != nil {
		if err := ps.Checkpoint(ent.persistState()); err != nil {
			ent.healthMu.Lock()
			ent.healthErr = err
			ent.healthMu.Unlock()
			return fmt.Errorf("%w: probe: %v", ErrDegraded, err)
		}
	}
	// The checkpoint (or, in-memory, nothing) now agrees with the graph;
	// catch the session up and publish, so reads see any never-published
	// applied suffix.
	if _, _, err := ent.advanceLocked(ctx, nil); err != nil {
		return err
	}
	ent.setHealthy()
	return nil
}

// backoff is a jittered exponential backoff: each next() doubles the
// wait (capped at max) and smears it ±25% so a fleet of retriers
// hitting the same failing store does not hammer it in lockstep.
type backoff struct {
	base, max, cur time.Duration
}

func newBackoff(base, max time.Duration) *backoff {
	return &backoff{base: base, max: max}
}

func (b *backoff) next() time.Duration {
	if b.cur == 0 {
		b.cur = b.base
	} else if b.cur *= 2; b.cur > b.max {
		b.cur = b.max
	}
	d := b.cur
	return d + time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
}

func (b *backoff) reset() { b.cur = 0 }

// jitter smears a fixed interval ±25%, for periodic loops (the follower
// rescan) that would otherwise tick in fleet-wide lockstep.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
}
