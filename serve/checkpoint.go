package serve

import (
	"time"

	"gedlib/internal/obs"
	"gedlib/persist"
)

// Checkpoints leave the write path. A flush that finds a checkpoint due,
// once it has published its view, only cuts the WAL at that view's
// version (persist.GraphStore.Rotate: a close and an open) and hands the
// view's immutable parts (its snapshot, its name column, the rules
// source) to the entry's one background writer. The writer exports the
// image from the snapshot and writes it to a temp file while later
// flushes append and ack. The first flush after it finishes puts the
// file in place (a rename and a directory sync) and compacts, so the
// directory changes only inside flushes: a copy taken once writes stop
// sees no file renamed or deleted under it. Until the rename, recovery
// replays across the rotation from the previous checkpoint, and only
// then are older segments compacted.
//
// The writer gives way to writes: between slices of its work it waits
// while a flush of any graph is running (at most ckptPause at a time),
// so on a busy box it takes the processor mostly when writes leave it
// idle, instead of slowing every flush that overlaps it. Once the graph's
// log holds 2×CheckpointEvery ops past its newest durable checkpoint it
// stops giving way, which keeps what a crash would replay bounded.
//
// At most one checkpoint is in flight. A due point reached meanwhile
// waits for the first flush after the write lands; there is no queue. A
// write's error comes back to the next flush, which applies the flush
// path's policy: a transient error retries at the next due point, any
// other goes to persistFault. The paths that need a checkpoint before
// they may go on (Create, close, a probe's heal) write it at once, after
// waiting out the write in flight and dropping what it wrote.

// ckptTestHook, when non-nil, runs on the background writer before it
// writes the cut at version v (tests hold the writer there).
var ckptTestHook func(ent *GraphEntry, v uint64)

// ckptResult is what the background writer hands back: the written
// checkpoint, or why there is none.
type ckptResult struct {
	pending *persist.PendingCheckpoint
	err     error
}

// cutLocked is the entry's session state as a checkpoint cut: the
// snapshot, its nodes' names and the rules source. Callers hold ent.mu.
func (ent *GraphEntry) cutLocked() persist.Cut {
	snap := ent.sess.Snapshot()
	return persist.Cut{Snap: snap, Names: ent.names.dense(snap.NumNodes()), Rules: ent.rulesSrc}
}

// checkpointDueLocked ends a flush that published v: it puts a finished
// background checkpoint in place and, when a checkpoint is due and none
// is in flight, cuts the WAL at v and starts the writer on v's parts.
func (ent *GraphEntry) checkpointDueLocked(ps *persist.GraphStore, v *View, sp *obs.Span) {
	// The batch is durable in the WAL whatever a checkpoint does, so it
	// is acked either way; a failed checkpoint only defers compaction.
	// A permanent error still degrades the graph (the disk is refusing
	// writes, and the log would grow without bound), and a fence still
	// fences it (the batch passed its own fence check at the sync, so it
	// predates the takeover and the new leader adopted it).
	if err := ent.installCheckpointLocked(sp); err != nil && !persist.IsTransient(err) {
		ent.persistFault(err)
		return
	}
	if ent.ckpt != nil || !ps.CheckpointDue() {
		return
	}
	start := time.Now()
	if _, err := ps.Rotate(); err != nil {
		if !persist.IsTransient(err) {
			ent.persistFault(err)
		}
		return
	}
	sp.StageDur(stageRotate, time.Since(start))
	done := make(chan ckptResult, 1)
	ent.ckpt = done
	ent.ckptBusy.Store(true)
	cut := persist.Cut{Snap: v.Snap, Names: v.Names.byID, Rules: ent.rulesSrc, Yield: ent.giveWay(ps)}
	go ent.writeCheckpoint(ps, cut, done)
}

// ckptPause bounds one pause of the background writer.
const ckptPause = 10 * time.Millisecond

// giveWay is the background writer's pause between slices of its work:
// it waits, up to ckptPause, while any flush of the catalog runs, unless
// ps's log already holds 2×CheckpointEvery ops past the newest durable
// checkpoint.
func (ent *GraphEntry) giveWay(ps *persist.GraphStore) func() {
	bound := 2 * ent.cat.store.Options().CheckpointEvery
	return func() {
		if ps.Stats().OpsSinceCheckpoint >= bound {
			return
		}
		for deadline := time.Now().Add(ckptPause); ent.cat.flushing.Load() > 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// writeCheckpoint is the background writer: one checkpoint span per
// write, carrying the cut's version.
func (ent *GraphEntry) writeCheckpoint(ps *persist.GraphStore, cut persist.Cut, done chan<- ckptResult) {
	v := cut.Snap.SourceVersion()
	sp := ent.cat.tracer().Start(ent.name, "checkpoint")
	sp.SetVersion(v)
	if hook := ckptTestHook; hook != nil {
		hook(ent, v)
	}
	pending, err := ps.WriteCheckpoint(cut)
	sp.Fail(err)
	sp.End()
	done <- ckptResult{pending, err}
}

// installCheckpointLocked puts a background checkpoint that has been
// written in place, returning the write's or the rename's error; nil
// while the writer runs or when none ran.
func (ent *GraphEntry) installCheckpointLocked(sp *obs.Span) error {
	select {
	case res := <-ent.ckpt: // a nil channel (none in flight) never receives
		ent.ckpt = nil
		ent.ckptBusy.Store(false)
		if res.err != nil {
			return res.err
		}
		start := time.Now()
		err := res.pending.Publish()
		sp.StageDur(stageInstall, time.Since(start))
		return err
	default:
		return nil
	}
}

// awaitCheckpointLocked waits out the background write in flight, if
// any, and drops what it wrote: the caller is about to write a
// checkpoint itself or to close the store.
func (ent *GraphEntry) awaitCheckpointLocked() {
	if ent.ckpt == nil {
		return
	}
	if res := <-ent.ckpt; res.pending != nil {
		res.pending.Discard()
	}
	ent.ckpt = nil
	ent.ckptBusy.Store(false)
}
