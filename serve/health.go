package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gedlib/persist"
)

// A graph's lifecycle is one state, changed only by on() through the
// transitions table; every surface that depends on it (Health,
// EntryStats.Role, the health and role gauges, the /healthz rollup, the
// write rejection, probe eligibility, the entries Promote picks) reads
// the state's row in stateRows. The README's "Graph lifecycle" table is
// the same table.
//
// Lock order: Catalog.roleMu → GraphEntry.mu. The state needs no lock:
// it is an immutable record behind one atomic pointer, replaced by
// compare-and-swap. The closing transition fires under GraphEntry.mu,
// so a path holding that lock finished before the close or observes it.
type lifeState uint8

const (
	stLeaderOK        lifeState = iota // accepts writes
	stLeaderDegraded                   // persist failing: reads only until a probe heals
	stFollowerOK                       // replica tailing the leader's WAL
	stFollowerLagging                  // replica whose tail keeps failing
	stFenced                           // deposed leader: reads only, never heals
	stClosing                          // shut down, deleted or dropped; terminal
	numStates
)

type lifeEvent uint8

const (
	evFault       lifeEvent = iota // a persist failure on the write path
	evFence                        // a newer leadership epoch owns the log
	evHeal                         // a probe re-anchored durability
	evTailFail                     // the tail failed followerDegradeAfter times running
	evTailOK                       // the tail applied a record or re-recovered
	evPromote                      // the replica became the leader
	evPromoteFail                  // the replica's promotion failed
	evClose                        // the entry shuts down
	numEvents
)

// effect is what a transition does once it has landed.
type effect uint8

const (
	effDegraded  effect = 1 << iota // count ged_serve_degraded_total
	effRecovered                    // count ged_serve_recovered_total
	effFenced                       // count ged_serve_fenced_total
	effProbe                        // start the probe loop
	effStopProbe                    // stop the probe loop
	effLeader                       // drop the follower-only series
)

// transition is one cell of the table. The zero value is an illegal
// pair: it changes nothing. A legal self-transition records the new
// cause and keeps since.
type transition struct {
	next  lifeState
	eff   effect
	legal bool
}

func to(next lifeState, eff effect) transition { return transition{next, eff, true} }

var transitions = [numStates][numEvents]transition{
	stLeaderOK: {
		evFault: to(stLeaderDegraded, effDegraded|effProbe),
		evFence: to(stFenced, effFenced),
		evClose: to(stClosing, effStopProbe),
	},
	stLeaderDegraded: {
		evFault: to(stLeaderDegraded, 0),
		evFence: to(stFenced, effFenced),
		evHeal:  to(stLeaderOK, effRecovered),
		evClose: to(stClosing, effStopProbe),
	},
	stFollowerOK: {
		evTailFail:    to(stFollowerLagging, effDegraded),
		evPromote:     to(stLeaderOK, effLeader),
		evPromoteFail: to(stFollowerLagging, effDegraded),
		evClose:       to(stClosing, effStopProbe),
	},
	stFollowerLagging: {
		evTailFail:    to(stFollowerLagging, 0),
		evTailOK:      to(stFollowerOK, effRecovered),
		evPromote:     to(stLeaderOK, effRecovered|effLeader),
		evPromoteFail: to(stFollowerLagging, 0),
		evClose:       to(stClosing, effStopProbe),
	},
	stFenced: {
		evFence: to(stFenced, 0),
		evClose: to(stClosing, effStopProbe),
	},
}

// stateRow is what the surfaces derive from one state: the health and
// role strings, the ged_serve_graph_health and ged_serve_role values,
// the /healthz rollup rank (status = rollup[max rank]), the error a
// write meets (nil: writable), and whether a heal probe may run —
// otherwise Probe returns probeErr.
type stateRow struct {
	health, role           string
	healthGauge, roleGauge float64
	rank                   int
	writeErr               error
	probe                  bool
	probeErr               error
}

var stateRows = [numStates]stateRow{
	stLeaderOK:        {"ok", "leader", 0, 0, 0, nil, false, nil},
	stLeaderDegraded:  {"degraded", "leader", 1, 0, 1, ErrDegraded, true, nil},
	stFollowerOK:      {"readonly", "follower", 2, 1, 0, ErrReadOnly, false, ErrReadOnly},
	stFollowerLagging: {"degraded", "follower", 1, 1, 1, ErrReadOnly, false, ErrReadOnly},
	stFenced:          {"fenced", "fenced", 3, 2, 2, ErrFenced, false, nil},
	stClosing:         {"closed", "closed", 4, 3, 0, ErrClosed, false, ErrClosed},
}

// rollup is the /healthz status by rank: fenced outranks degraded, as
// it never heals by itself.
var rollup = [...]string{"ok", "degraded", "fenced"}

// lifecycle is the published state record, never mutated once stored:
// the state, why it was entered (nil for the healthy states) and when.
type lifecycle struct {
	state lifeState
	cause error
	since time.Time
}

func (lc *lifecycle) row() *stateRow { return &stateRows[lc.state] }

// on moves the entry through the transition table, then runs the
// transition's effects.
func (ent *GraphEntry) on(ev lifeEvent, cause error) {
	for {
		cur := ent.life.Load()
		t := transitions[cur.state][ev]
		if !t.legal || (t.next == cur.state && cause == nil && cur.cause == nil) {
			return
		}
		next := &lifecycle{state: t.next, cause: cause, since: cur.since}
		if t.next != cur.state {
			next.since = time.Now()
		}
		if ent.life.CompareAndSwap(cur, next) {
			ent.runEffects(t.eff)
			return
		}
	}
}

func (ent *GraphEntry) runEffects(eff effect) {
	if eff&effDegraded != 0 {
		ent.mDegraded.Inc()
	}
	if eff&effRecovered != 0 {
		ent.mRecoveries.Inc()
	}
	if eff&effFenced != 0 {
		ent.mFenced.Inc()
	}
	if eff&effProbe != 0 {
		go ent.probeLoop()
	}
	if eff&effStopProbe != 0 {
		close(ent.probeStop) // nothing leaves closing, so this runs once
	}
	if eff&effLeader != 0 {
		ent.dropFollowerMetrics()
	}
}

// Health reports the entry's serving health: "ok", "degraded" (the
// persist layer or the follower tail is failing; reads only, with the
// causing error), "fenced" (a deposed leader; reads only, with the
// fencing error), "readonly" (a healthy follower replica) or "closed".
func (ent *GraphEntry) Health() (state string, cause error) {
	lc := ent.life.Load()
	return lc.row().health, lc.cause
}

// persistFault routes a persist-layer failure to its event: an epoch
// fence (persist.ErrFenced — a promoted follower owns the log now)
// fences the entry, anything else is a fault that degrades it.
func (ent *GraphEntry) persistFault(err error) {
	if errors.Is(err, persist.ErrFenced) {
		ent.mFencedAppends.Inc()
		ent.on(evFence, err)
		return
	}
	ent.on(evFault, err)
}

// probeLoop retries recovery of a degraded entry with jittered
// exponential backoff until a probe succeeds or finds the entry no
// longer leader-degraded, or the entry closes.
func (ent *GraphEntry) probeLoop() {
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

// Probe attempts to recover a degraded entry right now: a checkpoint of
// the session's snapshot re-anchors durability at the in-memory state.
// That is deliberately NOT a retry of whatever failed — a failed fsync
// is never retried (the kernel may already have dropped the dirty
// pages, so a passing retry proves nothing) — and a failed write left
// nothing to roll forward. Only a flush that panicked after logging its
// batch leaves the session behind the log; the entry is then reloaded
// from what persist recovers first. On success the entry publishes its
// current state and accepts writes again. Only a leader-degraded entry
// probes; in any other state Probe
// returns the state's probeErr (nil for a healthy or fenced leader — no
// probe may resurrect a fenced one; ErrReadOnly for a follower, which
// heals through its tail loop).
func (ent *GraphEntry) Probe(ctx context.Context) error {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if row := ent.life.Load().row(); !row.probe {
		return row.probeErr
	}
	ent.mProbes.Inc()
	ps := ent.ps.Load()
	if ent.reload {
		rec, err := ent.cat.store.Recover(ent.name)
		if err == nil {
			err = ent.loadLocked(ctx, rec.State)
		}
		if err != nil {
			return fmt.Errorf("%w: probe: reload: %v", ErrDegraded, err)
		}
	}
	vs, err := ent.sess.Violations(ctx)
	if err != nil {
		return err
	}
	if ps != nil {
		ent.awaitCheckpointLocked()
		if err := ps.Checkpoint(ent.cutLocked()); err != nil {
			ent.on(evFault, err)
			return fmt.Errorf("%w: probe: %v", ErrDegraded, err)
		}
	}
	ent.publishLocked(vs)
	ent.on(evHeal, nil)
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
	return jitter(b.cur)
}

func (b *backoff) reset() { b.cur = 0 }

// jitter smears a fixed interval ±25%, for periodic loops (the follower
// rescan) that would otherwise tick in fleet-wide lockstep.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
}
