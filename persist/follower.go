package persist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// tailStallPolls is how many growth-free polls a corrupt-looking tail
// frame survives before Tail gives up on it. A torn frame that is
// merely mid-write grows (or becomes valid) almost immediately; one
// that never changes is real corruption and the follower must
// re-recover rather than spin.
const tailStallPolls = 200

// Tail streams the records of a graph's WAL from rec's recovery point
// onward, calling fn for each in order. It follows segment rotations
// and polls for growth every poll interval. Leadership transitions are
// surfaced: an epoch-bump record is delivered to fn (EpochBump set)
// and from then on records of deposed epochs beyond the new fence
// bound are silently skipped, exactly as recovery skips them. Tail
// returns only on failure: ctx cancellation (ctx.Err()), fn error,
// ErrLagBehind when the position was compacted away (re-recover and
// call again with the fresh Recovery), a wrapped ErrNotFound once the
// graph's directory is gone (the leader deleted it; an open segment
// would otherwise keep answering "no growth" forever), or a corruption
// diagnosis, or a cut: the leader dropped a record Tail read before its
// sync failed (see frameMark), so the caller must re-recover. rec must
// come from Recover/OpenGraph of the same graph and must not be reused
// across Tail calls.
func (s *Store) Tail(ctx context.Context, name string, rec *Recovery, poll time.Duration, fn func(TailRecord) error) error {
	dir, err := s.graphDir(name)
	if err != nil {
		return err
	}
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	segPath := rec.tailSeg
	if segPath == "" {
		segPath = filepath.Join(dir, segName(rec.CheckpointVersion))
	}
	off, mark := rec.tailOff, rec.tailMark
	version := rec.State.Graph.Version()
	bounds, _ := s.readEpochs(dir)

	var f File
	defer func() {
		if f != nil {
			_ = f.Close()
		}
	}()
	// Each poll checks the mark after the read or the listing it vouches
	// for, so a cut the leader made before either shows.
	checkMark := func() error {
		gone, err := mark.gone(f)
		if err != nil {
			return fmt.Errorf("persist: tail read: %w", err)
		}
		if gone {
			return fmt.Errorf("persist: tail of %s: the leader dropped a record the tail read at offset %d; re-recover",
				filepath.Base(segPath), mark.at)
		}
		return nil
	}
	stalled := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f == nil {
			f, err = s.fs.OpenFile(segPath, os.O_RDONLY, 0)
			if err != nil {
				if os.IsNotExist(err) {
					// Our segment is gone: compacted (we lag more than the
					// retention) or never created yet (leader crashed
					// between checkpoint and rotation — the next poll or a
					// re-recover sorts it out).
					next, err := s.nextSegment(dir, segPath, version)
					if err != nil {
						return err
					}
					if next != "" {
						segPath, off, mark = next, 0, frameMark{}
						continue
					}
					return fmt.Errorf("%w (graph %q, segment %s)", ErrLagBehind, name, filepath.Base(segPath))
				}
				return fmt.Errorf("persist: tail open: %w", err)
			}
		}
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("persist: tail stat: %w", err)
		}
		if st.Size() > off {
			buf := make([]byte, st.Size()-off)
			if _, err := io.ReadFull(io.NewSectionReader(f, off, int64(len(buf))), buf); err != nil {
				return fmt.Errorf("persist: tail read: %w", err)
			}
			if err := checkMark(); err != nil {
				return err
			}
			// New data may include a promotion's aftermath: refresh the
			// fence table so a deposed leader's post-fence records are
			// skipped even before their epoch-bump record streams by.
			if nb, berr := s.readEpochs(dir); berr == nil {
				bounds = nb
			}
			var fnErr error
			valid, corrupt, err := scanFrames(buf, off, &mark, func(payload []byte) error {
				tr, derr := decodeRecord(payload)
				if derr != nil {
					return derr
				}
				if tr.EpochBump {
					bounds = setBound(bounds, EpochBound{Epoch: tr.Epoch, Version: tr.Version})
				} else if staleBeyond(bounds, tr.Epoch, tr.Version) {
					return nil // fenced-off record from a deposed leader; never acked
				}
				if tr.Delta != nil {
					if tr.Delta.ToVersion <= version {
						return nil // pre-recovery-point record in a shared segment
					}
					if tr.Delta.FromVersion != version {
						return fmt.Errorf("persist: tail gap: record from version %d at version %d", tr.Delta.FromVersion, version)
					}
				}
				if ferr := fn(tr); ferr != nil {
					fnErr = ferr
					return ferr
				}
				if tr.Delta != nil {
					version = tr.Delta.ToVersion
				}
				return nil
			})
			if fnErr != nil {
				return fnErr
			}
			if err != nil {
				return err
			}
			if valid > 0 {
				off += int64(valid)
				stalled = 0
			}
			if corrupt {
				// A torn frame at the live tail is usually a write in
				// flight; give it time to settle, then diagnose.
				stalled++
				if stalled > tailStallPolls {
					return fmt.Errorf("persist: tail of %s corrupt at offset %d", filepath.Base(segPath), off)
				}
			}
			if valid > 0 && !corrupt {
				continue // drained cleanly; look again immediately
			}
		} else {
			// No growth: maybe the leader rotated onto a new segment, or
			// deleted the graph.
			next, err := s.nextSegment(dir, segPath, version)
			if err != nil {
				return err
			}
			if err := checkMark(); err != nil {
				return err
			}
			if next != "" {
				_ = f.Close()
				f = nil
				segPath, off, mark, stalled = next, 0, frameMark{}, 0
				continue
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// nextSegment finds the segment after cur that the tail should switch
// to: the largest segment start ≤ version that is newer than cur's
// start. (Rotation happens at a checkpoint version the tail has fully
// consumed, so switching at version is gap-free; records below the
// recovery point are version-skipped anyway.) The one error it reports
// is a wrapped ErrNotFound for a removed graph directory; a failing
// listing is retried on the next poll.
func (s *Store) nextSegment(dir, cur string, version uint64) (string, error) {
	curStart, _ := parseVersioned(filepath.Base(cur), "wal-", ".log")
	segs, err := s.listVersions(dir, "wal-", ".log")
	if errors.Is(err, ErrNotFound) {
		return "", fmt.Errorf("%w: graph %q was deleted", ErrNotFound, filepath.Base(dir))
	}
	if err != nil {
		return "", nil
	}
	best := ""
	for _, v := range segs {
		if v > curStart && v <= version {
			best = filepath.Join(dir, segName(v))
		}
	}
	return best, nil
}
