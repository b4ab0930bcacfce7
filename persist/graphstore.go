package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gedlib"
	"gedlib/internal/obs"
)

// GraphStore is the single-writer durability handle for one graph: the
// serve batcher appends a delta record per coalesced flush, syncs per
// the fsync mode, and when enough ops have accumulated rotates the WAL
// for a checkpoint written in the background. Methods are safe for
// concurrent use, but there must be only one GraphStore per graph
// directory per process fleet — the WAL is an append-only single-writer
// log.
type GraphStore struct {
	store *Store
	name  string
	dir   string

	mu       sync.Mutex
	seg      File   // current WAL segment, opened for append
	segStart uint64 // graph version the segment starts at
	closed   bool
	// dirtyTail is set after a failed append or sync: the segment may
	// end in a torn frame or in records no sync covered, which the next
	// append or checkpoint truncates (back to segBytes, the last
	// known-good offset) before a later record lands after them.
	dirtyTail bool

	version     uint64 // graph version after the last appended record
	ckptVersion uint64 // version of the newest durable checkpoint
	// ops counts the logical ops in the log (appended by this handle,
	// plus the tail it recovered); cutOps and durableOps are its value
	// at the last rotation and at the newest durable checkpoint, so
	// ops-cutOps decides when a checkpoint is due and ops-durableOps is
	// the replay a crash would cost. cutVersion is the version of the
	// last rotation.
	ops, cutOps, durableOps int
	cutVersion              uint64
	segBytes                int64  // bytes in the current segment
	records                 uint64 // records appended by this handle, less those a failed sync dropped
	lastSync                time.Duration
	pendingSync             bool
	// synced is the log's end at the last good sync or checkpoint,
	// which a failed sync falls back to.
	synced logEnd

	// epoch is the leadership epoch stamped onto every record this
	// handle appends. fenced latches once a later epoch's bound is
	// observed in the EPOCHS file: from then on every append and sync
	// fails with ErrFenced (fencedBy says who won). See epoch.go.
	epoch    uint64
	fenced   bool
	fencedBy EpochBound

	// metric handles from the store's observer registry; all nil (no-op)
	// when the store is unobserved.
	mBytes   *obs.Counter
	mRecords *obs.Counter
	mFsync   *obs.Histogram
	mCkpt    *obs.Histogram
	mCkptN   *obs.Counter
}

// logEnd is where the log ends: the counters a failed sync rolls back,
// so that none of them counts the records it dropped.
type logEnd struct {
	version uint64
	bytes   int64
	ops     int
	records uint64
}

func (gs *GraphStore) endLocked() logEnd {
	return logEnd{version: gs.version, bytes: gs.segBytes, ops: gs.ops, records: gs.records}
}

// initMetrics resolves the handle's per-graph metric handles; a nil
// registry yields nil no-op handles.
func (gs *GraphStore) initMetrics() {
	reg := gs.store.reg
	gs.mBytes = reg.Counter("ged_wal_bytes_total", "bytes appended to the WAL", "graph", gs.name)
	gs.mRecords = reg.Counter("ged_wal_records_total", "records appended to the WAL", "graph", gs.name)
	gs.mFsync = reg.Histogram("ged_wal_fsync_seconds", "WAL fsync duration", "graph", gs.name)
	gs.mCkpt = reg.Histogram("ged_checkpoint_seconds", "checkpoint write + rotate + compact duration", "graph", gs.name)
	gs.mCkptN = reg.Counter("ged_checkpoints_total", "checkpoints written", "graph", gs.name)
}

// GraphStoreStats is a point-in-time snapshot of durability counters.
type GraphStoreStats struct {
	Version uint64
	// CheckpointVersion is the version of the newest durable checkpoint,
	// and OpsSinceCheckpoint the logical ops logged past it: what a
	// crash now would replay. A checkpoint still being written in the
	// background counts from its rename on.
	CheckpointVersion  uint64
	OpsSinceCheckpoint int
	WALBytes           int64  // bytes in the current segment
	WALRecords         uint64 // records this handle appended, less those a failed sync dropped
	LastSync           time.Duration
	Fsync              FsyncMode
	Epoch              uint64 // leadership epoch this handle writes under
	Fenced             bool   // a later epoch took over; appends fail with ErrFenced
}

// Create initializes a graph's directory: an initial checkpoint of c
// and an empty WAL segment rotated at it. It fails with ErrExists if
// the directory is already there.
func (s *Store) Create(name string, c Cut) (*GraphStore, error) {
	dir, err := s.graphDir(name)
	if err != nil {
		return nil, err
	}
	if err := s.fs.Mkdir(dir, 0o755); err != nil {
		if os.IsExist(err) {
			return nil, ErrExists
		}
		return nil, fmt.Errorf("persist: create graph: %w", err)
	}
	gs := &GraphStore{store: s, name: name, dir: dir, version: c.Snap.SourceVersion()}
	gs.initMetrics()
	if err := gs.Checkpoint(c); err != nil {
		return nil, err
	}
	return gs, nil
}

// Name returns the graph's name.
func (gs *GraphStore) Name() string { return gs.name }

// AppendDelta appends one delta record; names are the wire names of
// d.Nodes (parallel, "" for unnamed). In FsyncAlways mode the record
// is synced before returning; otherwise it is left for the next Sync.
func (gs *GraphStore) AppendDelta(d *gedlib.Delta, names []string) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return ErrClosed
	}
	if err := gs.checkFenceLocked(false); err != nil {
		return err
	}
	if err := gs.appendLocked(encodeDelta(time.Now().UnixNano(), gs.epoch, d, names)); err != nil {
		return err
	}
	gs.version = d.ToVersion
	gs.ops += d.Size()
	if gs.store.opts.Fsync == FsyncAlways {
		return gs.syncLocked()
	}
	gs.pendingSync = true
	return nil
}

// AppendRules appends a rules-registration record (the DSL source, at
// the given graph version) and syncs it immediately (rules changes are
// rare and must not be lost to a crash between flushes) unless fsync
// is off.
func (gs *GraphStore) AppendRules(version uint64, src string) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return ErrClosed
	}
	if err := gs.checkFenceLocked(false); err != nil {
		return err
	}
	if err := gs.appendLocked(encodeRules(time.Now().UnixNano(), gs.epoch, version, src)); err != nil {
		return err
	}
	if gs.store.opts.Fsync == FsyncOff {
		return nil
	}
	return gs.syncLocked()
}

// Sync is the group-commit point: in FsyncBatch mode it fsyncs the
// segment once, covering every record appended since the last sync. In
// FsyncAlways mode records are already down; in FsyncOff it is a no-op.
func (gs *GraphStore) Sync() error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return ErrClosed
	}
	if gs.store.opts.Fsync != FsyncBatch || !gs.pendingSync {
		return nil
	}
	return gs.syncLocked()
}

func (gs *GraphStore) syncLocked() error {
	start := time.Now()
	if err := gs.seg.Sync(); err != nil {
		// Drop the records since the last good sync: never acknowledged,
		// and maybe lost whatever the page cache still holds.
		e := gs.synced
		gs.version, gs.segBytes, gs.ops, gs.records = e.version, e.bytes, e.ops, e.records
		gs.dirtyTail, gs.pendingSync = true, false
		return fmt.Errorf("persist: fsync WAL: %w", err)
	}
	gs.synced = gs.endLocked()
	gs.lastSync = time.Since(start)
	gs.mFsync.Observe(gs.lastSync)
	gs.pendingSync = false
	// Durable-but-maybe-deposed: before this sync is acknowledged to a
	// client, confirm no later epoch fenced us off. Records synced at or
	// below a successor's bound were adopted by it (the caller may still
	// ack them); anything later is gone from the adopted lineage and
	// must fail. This check ordering — write, sync, then read the fence
	// file — against Promote's bump-then-drain is what makes "acked ⇒
	// adopted" a total-order argument rather than a race.
	return gs.checkFenceLocked(true)
}

// checkFenceLocked consults the graph's EPOCHS file for a bound
// published by a later epoch. atAck selects the acknowledgement-time
// rule: records already durable at or below the successor's fence
// bound were adopted by it, so the sync that covered them may still be
// acknowledged — but the handle latches fenced either way and refuses
// everything after. Failing to read the fence file is an I/O fault,
// not a fencing verdict: the operation fails without latching, so a
// leader that cannot confirm its own leadership never acks.
func (gs *GraphStore) checkFenceLocked(atAck bool) error {
	if gs.fenced {
		return gs.fenceErrLocked()
	}
	bounds, err := gs.store.readEpochs(gs.dir)
	if err != nil {
		return fmt.Errorf("persist: fence check: %w", err)
	}
	b := boundAfter(bounds, gs.epoch)
	if b == nil {
		return nil
	}
	gs.fenced, gs.fencedBy = true, *b
	if atAck && gs.version <= b.Version {
		return nil
	}
	return gs.fenceErrLocked()
}

func (gs *GraphStore) fenceErrLocked() error {
	return fmt.Errorf("%w: graph %q epoch %d deposed by epoch %d (fence bound at version %d)",
		ErrFenced, gs.name, gs.epoch, gs.fencedBy.Epoch, gs.fencedBy.Version)
}

// Epoch returns the leadership epoch this handle stamps onto appended
// records.
func (gs *GraphStore) Epoch() uint64 {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.epoch
}

// AssumeEpoch overrides the epoch this handle writes under and runs an
// eager fence check. A rebooting leader that may have been deposed
// while down passes the epoch it last held: if a successor has taken
// over since, the check returns ErrFenced immediately and the caller
// demotes to read-only instead of writing into a log it no longer
// owns. The handle stays usable for reads and stats either way.
func (gs *GraphStore) AssumeEpoch(epoch uint64) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return ErrClosed
	}
	gs.epoch = epoch
	gs.fenced = false
	return gs.checkFenceLocked(false)
}

// appendEpochBump logs the handle's epoch and its fence bound — called
// once by Promote so tailing followers learn the transition in stream
// order.
func (gs *GraphStore) appendEpochBump() error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return ErrClosed
	}
	if err := gs.appendLocked(encodeEpochBump(time.Now().UnixNano(), gs.epoch, gs.version)); err != nil {
		return err
	}
	if gs.store.opts.Fsync == FsyncOff {
		return nil
	}
	return gs.syncLocked()
}

// repairTailLocked truncates the segment back to segBytes when a failed
// append or sync left bytes past it.
func (gs *GraphStore) repairTailLocked() error {
	if !gs.dirtyTail {
		return nil
	}
	if err := gs.seg.Truncate(gs.segBytes); err != nil {
		return fmt.Errorf("persist: repair torn WAL tail: %w", err)
	}
	gs.dirtyTail = false
	return nil
}

func (gs *GraphStore) appendLocked(payload []byte) error {
	if err := gs.repairTailLocked(); err != nil {
		return err
	}
	b := frame(payload)
	if _, err := gs.seg.Write(b); err != nil {
		// The kernel may have written a prefix of the frame even on
		// error (a torn write); mark the tail suspect so the next append
		// repairs it first.
		gs.dirtyTail = true
		return fmt.Errorf("persist: append WAL record: %w", err)
	}
	gs.segBytes += int64(len(b))
	gs.records++
	gs.mBytes.Add(uint64(len(b)))
	gs.mRecords.Inc()
	return nil
}

// CheckpointDue reports whether enough ops accumulated since the last
// rotation to warrant a new checkpoint.
func (gs *GraphStore) CheckpointDue() bool {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.ops-gs.cutOps >= gs.store.opts.CheckpointEvery
}

// A checkpoint is written either at once or in the background. At once,
// Checkpoint writes the image, then rotates the WAL onto a segment named
// after its version and compacts, all under the handle's lock. In the
// background, Rotate cuts the WAL at its current end first, on the
// writer's path; WriteCheckpoint then writes the image of the state at
// that cut to a temp file without the lock, so appends and syncs go on
// meanwhile; and Publish, back on the writer's path, renames it into
// place and compacts. Until the rename, recovery starts from the
// previous checkpoint and replays across the rotation: the old segments
// end at the cut and the new one starts there, and nothing is compacted
// before the new checkpoint is durable. One checkpoint is written at a
// time; the caller serializes them.

// Checkpoint writes c as a new checkpoint, rotates the WAL onto a fresh
// segment starting at c's version, and compacts: checkpoints beyond the
// retention and the segments older than the oldest retained checkpoint
// are deleted; one at the current checkpoint version only truncates a
// dirty tail. c must be the state of the graph whose deltas the caller
// has been appending, and nothing may be appended while it runs (serve
// holds the entry lock): the image covers every op the log holds.
func (gs *GraphStore) Checkpoint(c Cut) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return ErrClosed
	}
	v := c.Snap.SourceVersion()
	if v == gs.ckptVersion && gs.seg != nil && !gs.dirtyTail {
		return nil
	}
	// A deposed leader must not publish a checkpoint: it would become
	// the newest (and preferred) recovery root while containing fenced
	// state. Recovery also disqualifies stale checkpoints by the epoch
	// in their header, but refusing here keeps the directory clean. Nor
	// may it cut a dirty tail: its successor appends to that segment.
	if err := gs.checkFenceLocked(false); err != nil {
		return err
	}
	if err := gs.repairTailLocked(); err != nil {
		return err
	}
	if v == gs.ckptVersion && gs.seg != nil {
		return nil
	}
	ckptStart := time.Now()
	if _, err := gs.store.writeCheckpoint(gs.dir, c, gs.epoch, gs.store.opts.Fsync != FsyncOff); err != nil {
		return err
	}
	// Rotate: further records land in a fresh segment named after v.
	if gs.seg == nil || gs.segStart != v {
		if err := gs.rotateLocked(v); err != nil {
			return err
		}
	}
	gs.version, gs.pendingSync = v, false
	gs.cutOps, gs.cutVersion = gs.ops, v
	gs.synced = gs.endLocked()
	gs.durableLocked(v)
	if gs.store.opts.Fsync != FsyncOff {
		_ = gs.store.fs.SyncDir(gs.dir)
	}
	gs.mCkpt.Observe(time.Since(ckptStart))
	gs.mCkptN.Inc()
	return nil
}

// Rotate cuts the WAL for a background checkpoint: the records appended
// so far are synced (unless fsync is off), further records go to a
// fresh segment named after the current version, and that version is
// returned; it must be the version of the state the caller then hands
// to WriteCheckpoint. The new segment's directory entry is synced
// before Rotate returns, so no record acknowledged after the cut can
// land in a file a crash would lose. A deposed leader is refused
// (ErrFenced): its segment would split the new leader's.
func (gs *GraphStore) Rotate() (uint64, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return 0, ErrClosed
	}
	if err := gs.checkFenceLocked(false); err != nil {
		return 0, err
	}
	if gs.store.opts.Fsync != FsyncOff && gs.pendingSync {
		if err := gs.syncLocked(); err != nil {
			return 0, err
		}
	}
	v := gs.version
	if gs.segStart != v {
		if err := gs.rotateLocked(v); err != nil {
			return 0, err
		}
		if gs.store.opts.Fsync != FsyncOff {
			if err := gs.store.fs.SyncDir(gs.dir); err != nil {
				return 0, fmt.Errorf("persist: rotate WAL: %w", err)
			}
		}
	}
	gs.cutOps, gs.cutVersion = gs.ops, v
	gs.synced = gs.endLocked()
	return v, nil
}

// WriteCheckpoint writes c, the state at the version Rotate last
// returned, to a temp file and fsyncs it, without the handle's lock, so
// appends and syncs go on meanwhile. The checkpoint is not in place yet:
// Publish puts it there, Discard drops it.
func (gs *GraphStore) WriteCheckpoint(c Cut) (*PendingCheckpoint, error) {
	v := c.Snap.SourceVersion()
	gs.mu.Lock()
	if gs.closed {
		gs.mu.Unlock()
		return nil, ErrClosed
	}
	if v != gs.cutVersion {
		gs.mu.Unlock()
		return nil, fmt.Errorf("persist: checkpoint at version %d, but the WAL was cut at %d", v, gs.cutVersion)
	}
	epoch := gs.epoch
	gs.mu.Unlock()
	start := time.Now()
	tmp, _, err := gs.store.writeTemp(gs.dir, c, epoch, gs.store.opts.Fsync != FsyncOff)
	if err != nil {
		return nil, err
	}
	return &PendingCheckpoint{gs: gs, tmp: tmp, version: v, took: time.Since(start)}, nil
}

// PendingCheckpoint is a checkpoint WriteCheckpoint wrote but did not put
// in place: until Publish renames it, the directory holds only a temp
// file that recovery ignores.
type PendingCheckpoint struct {
	gs      *GraphStore
	tmp     string
	version uint64
	took    time.Duration
}

// Publish puts the checkpoint in place and compacts behind it: a fence
// check (a deposed leader's image never enters the directory), the
// rename, a directory sync, then the deletion of checkpoints beyond the
// retention and of the segments no retained checkpoint needs. On error
// the temp file is removed.
func (p *PendingCheckpoint) Publish() error {
	gs := p.gs
	gs.mu.Lock()
	defer gs.mu.Unlock()
	err := ErrClosed
	if !gs.closed {
		err = gs.checkFenceLocked(false)
	}
	if err != nil {
		_ = gs.store.fs.Remove(p.tmp)
		return err
	}
	start := time.Now()
	if err := gs.store.installCheckpoint(gs.dir, p.tmp, p.version, gs.store.opts.Fsync != FsyncOff); err != nil {
		return err
	}
	if p.version > gs.ckptVersion {
		gs.durableLocked(p.version)
	}
	gs.mCkpt.Observe(p.took + time.Since(start))
	gs.mCkptN.Inc()
	return nil
}

// Discard drops the checkpoint: its temp file is removed.
func (p *PendingCheckpoint) Discard() { _ = p.gs.store.fs.Remove(p.tmp) }

// durableLocked records the checkpoint at v, the last cut, as durable
// and compacts behind it.
func (gs *GraphStore) durableLocked(v uint64) {
	gs.ckptVersion, gs.durableOps = v, gs.cutOps
	gs.compactLocked()
}

// rotateLocked moves appends onto the segment starting at v.
func (gs *GraphStore) rotateLocked(v uint64) error {
	seg, err := gs.store.fs.OpenFile(filepath.Join(gs.dir, segName(v)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: rotate WAL: %w", err)
	}
	if gs.seg != nil {
		_ = gs.seg.Close()
	}
	gs.seg, gs.segStart, gs.segBytes, gs.dirtyTail = seg, v, 0, false
	if st, err := seg.Stat(); err == nil {
		gs.segBytes = st.Size() // crash between rotate and compact can leave a nonempty reopened segment
	}
	return nil
}

// compactLocked deletes checkpoints beyond the retention bound and WAL
// segments no retained checkpoint needs for replay.
func (gs *GraphStore) compactLocked() {
	ckpts, err := gs.store.listVersions(gs.dir, "ckpt-", ".ged")
	if err != nil || len(ckpts) == 0 {
		return
	}
	keep := gs.store.opts.RetainCheckpoints
	if len(ckpts) > keep {
		for _, v := range ckpts[:len(ckpts)-keep] {
			_ = gs.store.fs.Remove(filepath.Join(gs.dir, ckptName(v)))
		}
		ckpts = ckpts[len(ckpts)-keep:]
	}
	oldest := ckpts[0]
	segs, err := gs.store.listVersions(gs.dir, "wal-", ".log")
	if err != nil {
		return
	}
	// A segment is needed if it is the one covering `oldest` (the last
	// segment starting at or before it) or any later one.
	covering := uint64(0)
	for _, v := range segs {
		if v <= oldest {
			covering = v
		}
	}
	for _, v := range segs {
		if v < covering {
			_ = gs.store.fs.Remove(filepath.Join(gs.dir, segName(v)))
		}
	}
}

// Stats reports the handle's durability counters.
func (gs *GraphStore) Stats() GraphStoreStats {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return GraphStoreStats{
		Version:            gs.version,
		CheckpointVersion:  gs.ckptVersion,
		OpsSinceCheckpoint: gs.ops - gs.durableOps,
		WALBytes:           gs.segBytes,
		WALRecords:         gs.records,
		LastSync:           gs.lastSync,
		Fsync:              gs.store.opts.Fsync,
		Epoch:              gs.epoch,
		Fenced:             gs.fenced,
	}
}

// Close syncs outstanding records and releases the segment handle.
func (gs *GraphStore) Close() error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.closed {
		return nil
	}
	gs.closed = true
	var err error
	if gs.seg != nil {
		if gs.store.opts.Fsync != FsyncOff && gs.pendingSync {
			start := time.Now()
			err = gs.seg.Sync()
			gs.lastSync = time.Since(start)
		}
		if cerr := gs.seg.Close(); err == nil {
			err = cerr
		}
		gs.seg = nil
	}
	return err
}
