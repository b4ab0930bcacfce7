package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Recovery is the result of replaying a graph's durable state: the
// recovered State plus what the replay saw on the way. The recovery
// point (segment + offset + version) is kept internally so Store.Tail
// can resume exactly where recovery stopped.
type Recovery struct {
	State State
	// CheckpointVersion is the version of the checkpoint the replay
	// started from.
	CheckpointVersion uint64
	// ReplayedRecords / ReplayedOps count the WAL tail that was applied
	// on top of the checkpoint.
	ReplayedRecords int
	ReplayedOps     int
	// TruncatedTail reports that the log ended in a torn or corrupted
	// frame — expected after a crash mid-append; the valid prefix is
	// what was recovered, and OpenGraph truncates the garbage.
	TruncatedTail bool
	// Epoch is the graph's current leadership epoch: the newest epoch
	// observed across the EPOCHS file, the loaded checkpoint header and
	// replayed epoch-bump records. A handle opened by OpenGraph writes
	// under it; a rebooting maybe-deposed leader overrides it with
	// AssumeEpoch.
	Epoch uint64
	// FencedRecords counts replayed records that were skipped because a
	// later epoch's fence bound excluded them — writes a deposed leader
	// attempted after its successor drained the log, never acknowledged.
	FencedRecords int

	// tail position for Store.Tail.
	tailSeg  string    // absolute path of the segment the replay ended in
	tailOff  int64     // byte offset of the first unconsumed frame
	tailMark frameMark // the last frame consumed in tailSeg
}

// tailFix records where OpenGraph must truncate a corrupt tail.
type tailFix struct {
	path  string
	valid int64
}

// Recover rebuilds a graph's state read-only: newest valid checkpoint,
// plus the replay of the WAL tail. It never modifies the directory —
// followers and diagnostics use it; leaders use OpenGraph, which also
// repairs the tail and reopens the log for appending.
func (s *Store) Recover(name string) (*Recovery, error) {
	rec, _, err := s.recover(name)
	return rec, err
}

// OpenGraph recovers a graph for writing: Recover, then truncate any
// corrupt tail (and remove unreachable later segments), then reopen the
// last segment for appending. The handle writes under the lineage's
// current epoch; a reboot that may have been deposed while down should
// follow with AssumeEpoch (see Config.AssumeEpoch in serve).
func (s *Store) OpenGraph(name string) (*GraphStore, *Recovery, error) {
	rec, fix, err := s.recover(name)
	if err != nil {
		return nil, nil, err
	}
	dir, _ := s.graphDir(name)
	gs, err := s.openRecovered(name, dir, rec, fix, rec.Epoch)
	if err != nil {
		return nil, nil, err
	}
	return gs, rec, nil
}

// openRecovered finishes opening a recovered graph for writing under
// the given epoch: truncate any corrupt tail (and remove unreachable
// later segments), then reopen the last segment for appending.
func (s *Store) openRecovered(name, dir string, rec *Recovery, fix *tailFix, epoch uint64) (*GraphStore, error) {
	if fix != nil {
		if err := s.fs.Truncate(fix.path, fix.valid); err != nil {
			return nil, fmt.Errorf("persist: truncate corrupt WAL tail: %w", err)
		}
		// Anything after a corrupt frame is unreachable history; a
		// later segment here means the corruption predates a rotation,
		// which only a partial manual copy produces. Drop them: the
		// replayed prefix is the durable truth.
		segs, _ := s.listVersions(dir, "wal-", ".log")
		fixStart, _ := parseVersioned(filepath.Base(fix.path), "wal-", ".log")
		for _, v := range segs {
			if v > fixStart {
				_ = s.fs.Remove(filepath.Join(dir, segName(v)))
			}
		}
	}
	segPath := rec.tailSeg
	if segPath == "" {
		segPath = filepath.Join(dir, segName(rec.State.Graph.Version()))
	}
	seg, err := s.fs.OpenFile(segPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: reopen WAL: %w", err)
	}
	segStart, _ := parseVersioned(filepath.Base(segPath), "wal-", ".log")
	gs := &GraphStore{
		store:       s,
		name:        name,
		dir:         dir,
		seg:         seg,
		segStart:    segStart,
		version:     rec.State.Graph.Version(),
		ckptVersion: rec.CheckpointVersion,
		ops:         rec.ReplayedOps,
		segBytes:    rec.tailOff,
		epoch:       epoch,
	}
	gs.synced = gs.endLocked()
	gs.initMetrics()
	return gs, nil
}

// recover is the shared replay. It returns the recovery plus, when the
// tail was corrupt, where a writer must truncate.
func (s *Store) recover(name string) (*Recovery, *tailFix, error) {
	replayStart := time.Now()
	defer func() {
		s.reg.Histogram("ged_recovery_replay_seconds",
			"checkpoint load + WAL tail replay duration", "graph", name).Observe(time.Since(replayStart))
	}()
	dir, err := s.graphDir(name)
	if err != nil {
		return nil, nil, err
	}
	ckpts, err := s.listVersions(dir, "ckpt-", ".ged")
	if err != nil {
		return nil, nil, err
	}
	if len(ckpts) == 0 {
		return nil, nil, fmt.Errorf("persist: graph %q has no checkpoint", name)
	}

	bounds, err := s.readEpochs(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: graph %q: %w", name, err)
	}

	// Newest valid checkpoint wins; a corrupt one (crash mid-write is
	// excluded by the rename, but disks rot) falls back to its
	// predecessor. So does a fenced one: a checkpoint a deposed leader
	// raced out past its successor's fence bound captures state that was
	// never acknowledged — it must not become the recovery root.
	var st State
	var ckptVer, ckptEpoch uint64
	loaded := false
	var lastErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		st, ckptVer, ckptEpoch, lastErr = s.loadCheckpoint(filepath.Join(dir, ckptName(ckpts[i])))
		if lastErr == nil && staleBeyond(bounds, ckptEpoch, ckptVer) {
			lastErr = fmt.Errorf("persist: %s: checkpoint fenced off by epoch %d",
				ckptName(ckpts[i]), boundAfter(bounds, ckptEpoch).Epoch)
		}
		if lastErr == nil {
			loaded = true
			break
		}
	}
	if !loaded {
		return nil, nil, fmt.Errorf("persist: graph %q: no loadable checkpoint: %w", name, lastErr)
	}

	rec := &Recovery{State: st, CheckpointVersion: ckptVer, Epoch: ckptEpoch}
	if ce := currentEpoch(bounds); ce > rec.Epoch {
		rec.Epoch = ce
	}

	segs, err := s.listVersions(dir, "wal-", ".log")
	if err != nil {
		return nil, nil, err
	}
	// Replay starts at the last segment that begins at or before the
	// checkpoint; earlier segments are fully covered by it.
	start := -1
	for i, v := range segs {
		if v <= ckptVer {
			start = i
		}
	}
	if start == -1 {
		if len(segs) == 0 {
			return rec, nil, nil
		}
		return nil, nil, fmt.Errorf("persist: graph %q: no WAL segment covers checkpoint version %d", name, ckptVer)
	}

	cur := st.Graph.Version()
	for i := start; i < len(segs); i++ {
		path := filepath.Join(dir, segName(segs[i]))
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: read WAL: %w", err)
		}
		rec.tailMark = frameMark{}
		valid, corrupt, err := scanFrames(data, 0, &rec.tailMark, func(payload []byte) error {
			return s.applyRecord(rec, bounds, &cur, payload)
		})
		if err != nil {
			// A record that frames correctly but does not decode or
			// apply is treated like tail corruption: keep the valid
			// prefix, truncate the rest. (A gap mid-log has no better
			// answer — the prefix is the last consistent state.)
			corrupt = true
		}
		rec.tailSeg, rec.tailOff = path, int64(valid)
		if corrupt {
			rec.TruncatedTail = true
			return rec, &tailFix{path: path, valid: int64(valid)}, nil
		}
	}
	return rec, nil, nil
}

// applyRecord is the shared replay step for recovery and Promote's
// drain: decode one WAL payload and fold it into rec. cur is the
// version cursor the chain check runs against. Records of a deposed
// epoch beyond a later epoch's fence bound are skipped — they were
// never acknowledged (see epoch.go) — before any version check, since
// a fenced-off record does not extend the adopted lineage.
func (s *Store) applyRecord(rec *Recovery, bounds []EpochBound, cur *uint64, payload []byte) error {
	tr, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	if !tr.EpochBump && staleBeyond(bounds, tr.Epoch, tr.Version) {
		rec.FencedRecords++
		return nil
	}
	switch {
	case tr.EpochBump:
		if tr.Epoch > rec.Epoch {
			rec.Epoch = tr.Epoch
		}
		rec.ReplayedRecords++
	case tr.Delta != nil:
		d := tr.Delta
		if d.ToVersion <= *cur {
			return nil // before the checkpoint; already reflected
		}
		if d.FromVersion != *cur {
			return fmt.Errorf("persist: WAL gap: record from version %d at version %d", d.FromVersion, *cur)
		}
		if err := rec.State.Graph.ApplyDelta(d); err != nil {
			return err
		}
		for j, n := range d.Nodes {
			if tr.Names[j] == "" {
				continue
			}
			for int(n.ID) >= len(rec.State.Names) {
				rec.State.Names = append(rec.State.Names, "")
			}
			rec.State.Names[n.ID] = tr.Names[j]
		}
		*cur = d.ToVersion
		rec.ReplayedRecords++
		rec.ReplayedOps += d.Size()
	case tr.Rules != nil:
		if tr.Version >= rec.CheckpointVersion {
			rec.State.Rules = *tr.Rules
		}
		rec.ReplayedRecords++
	}
	return nil
}
