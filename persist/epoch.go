package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Leadership epochs.
//
// Every graph directory carries an EPOCHS file — the fencing authority
// for its single-writer WAL. The file is a short text table:
//
//	gedepochs1
//	<epoch16x> <version16x>
//	...
//
// with one line per leadership transition, epochs strictly ascending: a
// line (E, V) means epoch E took over at graph version V, having
// drained the log to exactly V. Every WAL record (and checkpoint
// header) is stamped with the epoch of the leader that wrote it, and
// the bound gives each record an unambiguous verdict:
//
//	a record of epoch e is fenced off iff some later epoch's bound
//	(the first bound with Epoch > e) has Version < the record's
//	version.
//
// A fenced-off record was written by a deposed leader after its
// successor drained the log — the writer's own fence check refused to
// acknowledge it (see GraphStore.checkFenceLocked), so recovery and
// tailing skip it without losing anything a client was promised.
//
// The file is rewritten whole via temp + fsync + rename + dir sync, so
// a promotion survives any crash: either the old bound table or the
// new one is fully intact, never a torn mix.

const (
	epochsFile  = "EPOCHS"
	epochsMagic = "gedepochs1"
)

// EpochBound records one leadership transition: epoch Epoch took over
// at graph version Version.
type EpochBound struct {
	Epoch   uint64
	Version uint64
}

// readEpochs loads a graph directory's bound table. A missing file is
// epoch 0 with no transitions — every graph starts there.
func (s *Store) readEpochs(dir string) ([]EpochBound, error) {
	data, err := s.fs.ReadFile(filepath.Join(dir, epochsFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: read epochs: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != epochsMagic {
		return nil, fmt.Errorf("persist: %s: not an epochs file", epochsFile)
	}
	var out []EpochBound
	for _, ln := range lines[1:] {
		var b EpochBound
		if _, err := fmt.Sscanf(ln, "%016x %016x", &b.Epoch, &b.Version); err != nil {
			return nil, fmt.Errorf("persist: %s: bad bound line %q", epochsFile, ln)
		}
		if n := len(out); n > 0 && (b.Epoch <= out[n-1].Epoch || b.Version < out[n-1].Version) {
			return nil, fmt.Errorf("persist: %s: bounds out of order at %q", epochsFile, ln)
		}
		out = append(out, b)
	}
	return out, nil
}

// writeEpochs publishes a bound table crash-atomically: temp file,
// fsync, rename over EPOCHS, directory sync. The rename is the
// fencing point — a deposed leader's next fence check observes the new
// table or the old one, never garbage.
func (s *Store) writeEpochs(dir string, bounds []EpochBound) error {
	var sb strings.Builder
	sb.WriteString(epochsMagic + "\n")
	for _, b := range bounds {
		fmt.Fprintf(&sb, "%016x %016x\n", b.Epoch, b.Version)
	}
	tmp, err := s.fs.CreateTemp(dir, ".tmp-epochs-*")
	if err != nil {
		return fmt.Errorf("persist: write epochs: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = s.fs.Remove(tmpName) }
	if _, err := tmp.Write([]byte(sb.String())); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("persist: write epochs: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("persist: sync epochs: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("persist: close epochs: %w", err)
	}
	if err := s.fs.Rename(tmpName, filepath.Join(dir, epochsFile)); err != nil {
		cleanup()
		return fmt.Errorf("persist: publish epochs: %w", err)
	}
	_ = s.fs.SyncDir(dir)
	return nil
}

// currentEpoch is the newest epoch in the table (0 for a fresh graph).
func currentEpoch(bounds []EpochBound) uint64 {
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1].Epoch
}

// boundAfter returns the first bound of an epoch later than e — the
// fence a record stamped with epoch e is judged against — or nil when
// no later epoch exists.
func boundAfter(bounds []EpochBound, e uint64) *EpochBound {
	for i := range bounds {
		if bounds[i].Epoch > e {
			return &bounds[i]
		}
	}
	return nil
}

// staleBeyond reports whether a record stamped (epoch, version) falls
// beyond the fence bound of a later epoch — written by a deposed
// leader after its successor drained the log, never acknowledged.
func staleBeyond(bounds []EpochBound, epoch, version uint64) bool {
	b := boundAfter(bounds, epoch)
	return b != nil && version > b.Version
}

// setBound replaces the bound for b.Epoch (or appends it) and returns
// the table. Promote raises its own bound in place while chasing a
// still-writing deposed leader.
func setBound(bounds []EpochBound, b EpochBound) []EpochBound {
	for i := range bounds {
		if bounds[i].Epoch == b.Epoch {
			bounds[i] = b
			return bounds
		}
	}
	return append(bounds, b)
}

// Promote fences the graph's current leader and reopens the graph for
// writing under the next leadership epoch. The caller becomes the
// single writer the moment Promote returns.
//
// The fence-then-drain loop is what makes this safe against a deposed
// leader that is still alive and appending:
//
//  1. publish a bound for the new epoch at the WAL end the replay has
//     seen (temp+fsync+rename, so it survives a crash mid-promotion);
//  2. re-scan the WAL tail — if the old leader raced more records in
//     before the bound landed, adopt them by raising the bound and go
//     to 1; otherwise the end is stable and the fence is final.
//
// Every record the old leader acknowledged passed its own post-sync
// fence check before the bound it observed, so it is at or below the
// final bound and adopted here; every record beyond the final bound
// was never acknowledged and is skipped by all future recoveries. Zero
// acked writes lost, zero unacked writes resurrected.
func (s *Store) Promote(name string) (*GraphStore, *Recovery, error) {
	dir, err := s.graphDir(name)
	if err != nil {
		return nil, nil, err
	}
	rec, fix, err := s.recover(name)
	if err != nil {
		return nil, nil, err
	}
	bounds, err := s.readEpochs(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: promote %q: %w", name, err)
	}
	// The drain judges raced records against the PRE-promotion bounds:
	// they come from the deposed epoch and are being adopted, so the
	// new epoch's own (still-moving) bound must not fence them.
	oldBounds := append([]EpochBound(nil), bounds...)
	newEpoch := currentEpoch(bounds) + 1
	cur := rec.State.Graph.Version()
	for {
		bounds = setBound(bounds, EpochBound{Epoch: newEpoch, Version: cur})
		if err := s.writeEpochs(dir, bounds); err != nil {
			return nil, nil, fmt.Errorf("persist: promote %q: %w", name, err)
		}
		grew, derr := s.drainTail(dir, rec, oldBounds, &cur, &fix)
		if derr != nil {
			return nil, nil, fmt.Errorf("persist: promote %q: %w", name, derr)
		}
		if !grew {
			break
		}
	}
	rec.Epoch = newEpoch
	gs, err := s.openRecovered(name, dir, rec, fix, newEpoch)
	if err != nil {
		return nil, nil, err
	}
	// Mark the transition in the log itself, so tailing followers learn
	// the new epoch and its fence bound in stream order instead of
	// having to poll the EPOCHS file.
	if err := gs.appendEpochBump(); err != nil {
		_ = gs.Close()
		return nil, nil, fmt.Errorf("persist: promote %q: %w", name, err)
	}
	return gs, rec, nil
}

// drainTail extends a recovery to the current end of the WAL, applying
// any records that landed after the previous read of its segment, and
// following a rotation if one raced in. It reports whether the tail
// position moved. A corrupt frame stops the drain (nothing valid can
// follow it) and records where the writer must truncate.
func (s *Store) drainTail(dir string, rec *Recovery, bounds []EpochBound, cur *uint64, fix **tailFix) (bool, error) {
	if *fix != nil {
		return false, nil
	}
	grew := false
	for {
		segPath := rec.tailSeg
		if segPath == "" {
			segPath = filepath.Join(dir, segName(rec.CheckpointVersion))
			rec.tailSeg = segPath
		}
		data, err := s.fs.ReadFile(segPath)
		if err != nil {
			if os.IsNotExist(err) {
				return grew, nil
			}
			return grew, fmt.Errorf("persist: drain WAL: %w", err)
		}
		if gone, _ := rec.tailMark.gone(bytes.NewReader(data)); gone || int64(len(data)) < rec.tailOff {
			return grew, fmt.Errorf("persist: drain WAL: %s lost a record the drain applied; retry", filepath.Base(segPath))
		}
		if int64(len(data)) > rec.tailOff {
			valid, corrupt, aerr := scanFrames(data[rec.tailOff:], rec.tailOff, &rec.tailMark, func(payload []byte) error {
				return s.applyRecord(rec, bounds, cur, payload)
			})
			if aerr != nil {
				corrupt = true
			}
			if valid > 0 {
				grew = true
				rec.tailOff += int64(valid)
			}
			if corrupt {
				rec.TruncatedTail = true
				*fix = &tailFix{path: segPath, valid: rec.tailOff}
				return grew, nil
			}
		}
		next, err := s.nextSegment(dir, segPath, *cur)
		if err != nil || next == "" {
			return grew, err
		}
		rec.tailSeg, rec.tailOff, rec.tailMark = next, 0, frameMark{}
		grew = true
	}
}
