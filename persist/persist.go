// Package persist is the durability layer under the serve subsystem:
// per-graph append-only delta WALs, mmap-able checkpoint files, and the
// recovery and log-tailing machinery that turns them into restartable
// leaders and read-only followers.
//
// # Layout
//
// A Store is a directory; each graph owns a subdirectory named after it:
//
//	<dir>/<graph>/ckpt-<version16x>.ged   checkpoint at that version
//	<dir>/<graph>/wal-<version16x>.log    WAL segment starting there
//
// # WAL format
//
// A segment is a sequence of length+CRC framed records:
//
//	u32 payload length | u32 IEEE CRC32 of payload | payload
//
// (little endian). The payload's first byte is the record kind — a
// serialized Delta (one flush's changes, plus the wire names of added
// nodes), a rules registration (the DSL source), or an epoch bump.
// Every record carries its append wall-clock time, which is what
// follower staleness is measured against. A torn or corrupted tail
// frame is detected by the CRC, reported by recovery, and truncated —
// never crashed on — when the graph is reopened for writing.
//
// Records are appended by the serve batcher's flush, one record per
// coalesced batch, and fsynced per the configured mode: FsyncAlways
// syncs every record, FsyncBatch rides the group commit (one fsync per
// flush, amortized over every write the batch coalesced), FsyncOff
// leaves syncing to the OS.
//
// # Checkpoints
//
// A checkpoint is a GraphImage — symbol tables plus fixed-width
// columnar node/edge/attribute rows — laid out section by section
// behind a versioned header with a whole-payload CRC, 8-byte aligned so
// a loader can mmap the file and alias the numeric columns in place.
// Checkpoints are written to a temp file, fsynced, and renamed, so a
// crash mid-checkpoint leaves the previous one intact. A checkpoint at
// version V goes with a WAL rotation onto a fresh segment wal-<V>.log:
// Checkpoint writes the image first and rotates after, while a
// background checkpoint rotates first (GraphStore.Rotate, on the write
// path) and writes the image of the state at V afterwards, off it
// (GraphStore.WriteCheckpoint). Either way segments older than the
// retained checkpoints are deleted only once the new checkpoint is
// durable. Recovery is therefore "load newest valid checkpoint, replay
// the log tail": O(|G|) for the map plus O(|Δ since checkpoint|) for
// the replay, never a full-history rebuild.
//
// # Followers
//
// Store.Tail streams a graph's records from a recovery point onward,
// following segment rotations and polling for growth, which is all a
// read replica needs: recover once, tail forever, apply each delta to
// its own graph. ErrLagBehind reports a tail position whose segment was
// compacted away (the follower fell more than the checkpoint retention
// behind); the caller re-recovers and resumes. It does the same when
// the writer cut a segment behind the tail's position: a sync failed,
// and the writer dropped a record the tail had already read.
//
// # Leadership epochs and fencing
//
// The WAL is single-writer, and failover must keep it that way even
// when a deposed leader does not know it was deposed. Every record and
// checkpoint header is stamped with a leadership epoch; the per-graph
// EPOCHS file (see epoch.go) records each transition's fence bound —
// the version the new epoch drained the log to before taking over.
// Store.Promote publishes the next epoch's bound crash-atomically
// (temp+fsync+rename) and re-drains until the WAL end is stable; a
// writing handle re-checks the fence before every append and after
// every fsync, so a deposed leader's first post-fence operation fails
// with ErrFenced before it is acknowledged. Records a deposed leader
// raced in beyond the fence bound are skipped by recovery and Tail —
// they were never acked, so skipping them loses nothing and prevents
// split-brain lineages. Tail delivers epoch-bump records (EpochBump)
// so followers learn transitions in stream order.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"gedlib"
	"gedlib/internal/obs"
)

// FsyncMode selects when appended WAL records are fsynced.
type FsyncMode int

const (
	// FsyncBatch syncs once per Sync() call — the serve batcher calls it
	// once per coalesced flush, so the fsync is amortized over every
	// write the batch merged. The default.
	FsyncBatch FsyncMode = iota
	// FsyncAlways syncs every appended record.
	FsyncAlways
	// FsyncOff never syncs; durability is whatever the OS page cache
	// provides. Crash-consistency (CRC framing, checkpoint rename) still
	// holds — only the freshness of the surviving prefix is at risk.
	FsyncOff
)

// ParseFsyncMode parses "always", "batch" (or "") and "off".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync mode %q (want always, batch or off)", s)
}

// String renders the mode the way ParseFsyncMode reads it.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "batch"
	}
}

// Options tunes a Store. The zero value selects every default.
type Options struct {
	// Fsync is the WAL sync policy. Default FsyncBatch.
	Fsync FsyncMode
	// CheckpointEvery is how many logical ops may accumulate in the WAL
	// before CheckpointDue reports true. Default 4096.
	CheckpointEvery int
	// RetainCheckpoints is how many checkpoints (and the WAL segments
	// they anchor) survive compaction. More retention gives lagging
	// followers more slack before ErrLagBehind. Default 2.
	RetainCheckpoints int
	// FS overrides the filesystem every store operation goes through —
	// fault injection and tests. nil selects the OS-backed default.
	FS FS
	// Observer, when non-nil, receives the store's durability metrics:
	// per-graph WAL bytes/records, fsync and checkpoint durations, and
	// recovery replay time. serve passes its own observer here so the
	// whole pipeline lands in one registry.
	Observer *gedlib.Observer
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4096
	}
	if o.RetainCheckpoints <= 0 {
		o.RetainCheckpoints = 2
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// Errors reported by the store.
var (
	ErrClosed   = errors.New("persist: store closed")
	ErrNotFound = errors.New("persist: no such graph")
	ErrExists   = errors.New("persist: graph already exists")
	// ErrLagBehind reports a tail position whose WAL segment was
	// compacted away; the tailer must re-recover and resume from the
	// fresh recovery point.
	ErrLagBehind = errors.New("persist: tail position compacted away; re-recover")
	// ErrFenced reports that a later leadership epoch has taken over the
	// graph's log: this handle's appends are refused (and must not be
	// acknowledged). The deposed caller serves reads from its last state
	// and reboots as a follower of the new epoch.
	ErrFenced = errors.New("persist: fenced by a newer leadership epoch")
)

// State is the durable state of one graph: the graph itself, the wire
// names of its nodes (dense, indexed by NodeID, "" for unnamed), and
// the DSL source of its registered rule set.
type State struct {
	Graph *gedlib.Graph
	Names []string
	Rules string
}

// Cut is what a checkpoint captures of one graph: an immutable snapshot
// of it, the wire names of its nodes (dense, indexed by NodeID, "" for
// unnamed; it may stop short of the last nodes, which are then unnamed)
// and the DSL source of its rules. Every part is immutable, so a
// checkpoint can be written from a Cut while the graph moves on.
type Cut struct {
	Snap  *gedlib.Snapshot
	Names []string
	Rules string
	// Yield, when non-nil, runs between slices of the export and of the
	// file write: where a background writer gives way to foreground
	// work.
	Yield func()
}

// Store is a directory of per-graph WALs and checkpoints. A Store
// itself holds no file handles and is safe for concurrent use; the
// GraphStores it opens are single-writer.
type Store struct {
	dir  string
	opts Options
	fs   FS
	reg  *obs.Registry // from Options.Observer; nil disables metrics
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	return &Store{dir: dir, opts: opts, fs: opts.FS, reg: opts.Observer.Registry()}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Options returns the store's effective (defaulted) options.
func (s *Store) Options() Options { return s.opts }

// Graphs lists the store's graph names, sorted.
func (s *Store) Graphs() ([]string, error) {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list graphs: %w", err)
	}
	var out []string
	for _, de := range des {
		if de.IsDir() {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes a graph's directory and everything in it.
func (s *Store) Delete(name string) error {
	dir, err := s.graphDir(name)
	if err != nil {
		return err
	}
	return s.fs.RemoveAll(dir)
}

// graphDir validates the name (it becomes a path component) and returns
// the graph's directory.
func (s *Store) graphDir(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return "", fmt.Errorf("persist: invalid graph name %q", name)
	}
	return filepath.Join(s.dir, name), nil
}

// File naming: the 16-hex-digit version in the name is the graph
// version the checkpoint captures / the segment starts at, so plain
// lexicographic directory order is version order.

func ckptName(v uint64) string { return fmt.Sprintf("ckpt-%016x.ged", v) }
func segName(v uint64) string  { return fmt.Sprintf("wal-%016x.log", v) }

func parseVersioned(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listVersions returns the versions of every file matching
// prefix-<16x>suffix in dir, sorted ascending. A missing dir lists
// empty.
func (s *Store) listVersions(dir, prefix, suffix string) ([]uint64, error) {
	des, err := s.fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	var out []uint64
	for _, de := range des {
		if v, ok := parseVersioned(de.Name(), prefix, suffix); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
