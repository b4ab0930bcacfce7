// Package fault is a fault-injecting persist.FS: a deterministic,
// seedable schedule of filesystem failures layered over any base FS.
// It exists so the durability and degraded-serving paths can be
// exercised continuously — the chaos soak (serve.TestChaosSoak), the
// degraded-mode serve tests, and `gedserve -fault` all drive it —
// while production code never touches it.
//
// Faults are Rules. A rule watches one operation class (writes, syncs,
// opens, reads, renames) on paths matching a substring, and fires per
// its trigger:
//
//   - AfterBytes: an ENOSPC-style budget — matching writes succeed
//     until the byte budget is exhausted, then the write that crosses
//     the boundary lands partially (a realistic torn write at the end
//     of the disk) and fails; every later matching write fails too.
//   - Kth: fire from the Kth matching call onward (1-based).
//   - Count: fire at most Count times, then lapse (0 = until Heal).
//   - TornBytes: a torn write — write this many bytes of the payload
//     (a seeded random fraction when 0), then fail.
//   - Delay: latency injected before matching operations.
//
// All injected errors are sticky until healed unless bounded by Count;
// Heal drops every rule at once, which is what the soak's
// inject-then-heal episodes need. Everything is guarded by one mutex
// and the randomness comes from the constructor seed, so a given seed
// and operation sequence injects an identical fault schedule.
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gedlib/persist"
)

// Op classifies the filesystem operations a Rule can watch.
type Op uint8

const (
	// OpWrite matches File.Write on files opened for writing.
	OpWrite Op = iota
	// OpSync matches File.Sync.
	OpSync
	// OpOpen matches FS.OpenFile and FS.CreateTemp.
	OpOpen
	// OpRead matches File.ReadAt, FS.ReadFile, FS.ReadDir and FS.Map.
	OpRead
	// OpRename matches FS.Rename.
	OpRename
)

// ParseOp parses "write", "sync", "open", "read", "rename".
func ParseOp(s string) (Op, error) {
	switch s {
	case "write":
		return OpWrite, nil
	case "sync":
		return OpSync, nil
	case "open":
		return OpOpen, nil
	case "read":
		return OpRead, nil
	case "rename":
		return OpRename, nil
	}
	return 0, fmt.Errorf("fault: unknown op %q (want write, sync, open, read or rename)", s)
}

func (op Op) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpRename:
		return "rename"
	}
	return "?"
}

// Rule is one scheduled fault. See the package comment for trigger
// semantics. Zero triggers (no AfterBytes, no Kth) fire immediately.
type Rule struct {
	// Kind names the fault for stats ("enospc", "eio", "torn",
	// "slow"...); free-form.
	Kind string
	// Op is the operation class the rule watches.
	Op Op
	// Path filters by substring of the operated-on path; "" matches all.
	Path string
	// Err is the injected error; nil makes the rule latency-only.
	Err error
	// AfterBytes arms the rule only after this many bytes have been
	// written through matching operations (OpWrite only).
	AfterBytes int64
	// Kth arms the rule from the Kth matching call onward (1-based;
	// 0 = the first).
	Kth int
	// Count bounds how many times the rule fires (0 = until Heal).
	Count int
	// TornBytes, on OpWrite, writes this many bytes of the payload
	// before failing; 0 with Err picks a seeded random proper fraction.
	TornBytes int
	// Delay is injected before every matching operation.
	Delay time.Duration
}

type rule struct {
	Rule
	seen  int   // matching calls so far
	bytes int64 // matching bytes so far (OpWrite)
	fired int
}

// FS implements persist.FS, forwarding to a base FS and injecting the
// scheduled faults. Safe for concurrent use.
type FS struct {
	base persist.FS

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*rule
	injected map[string]uint64
}

var _ persist.FS = (*FS)(nil)

// New builds a fault FS over base (nil base = the OS default) with a
// deterministic seed for torn-write sizes.
func New(seed int64, base persist.FS) *FS {
	if base == nil {
		base = persist.OSFS()
	}
	return &FS{base: base, rng: rand.New(rand.NewSource(seed)), injected: map[string]uint64{}}
}

// Inject adds rules to the schedule.
func (f *FS) Inject(rs ...Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range rs {
		f.rules = append(f.rules, &rule{Rule: r})
	}
}

// Heal drops every rule: the disk works again.
func (f *FS) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected returns a copy of the per-kind injection counts.
func (f *FS) Injected() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// check consults the schedule for one operation. n is the payload size
// for writes (0 otherwise). It returns how many payload bytes may be
// written before the fault hits (n when no fault) and the injected
// error. Latency is slept here, outside the lock.
func (f *FS) check(op Op, path string, n int) (int, error) {
	f.mu.Lock()
	allowed, delay := n, time.Duration(0)
	var err error
	for _, r := range f.rules {
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		r.seen++
		prior := r.bytes
		if op == OpWrite {
			r.bytes += int64(n)
		}
		if r.Delay > delay {
			delay = r.Delay
		}
		if r.Err == nil {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Kth > 0 && r.seen < r.Kth {
			continue
		}
		if r.AfterBytes > 0 {
			if r.bytes <= r.AfterBytes {
				continue
			}
			// The write that crosses the budget lands partially: the
			// bytes that still fit make it to the file — a torn frame,
			// exactly what a full disk leaves behind.
			if fit := r.AfterBytes - prior; fit > 0 && fit < int64(allowed) {
				allowed = int(fit)
			} else if fit <= 0 {
				allowed = 0
			}
		} else if op == OpWrite && (r.TornBytes > 0 || r.Kind == "torn") {
			torn := r.TornBytes
			if torn == 0 && n > 1 {
				torn = 1 + f.rng.Intn(n-1)
			}
			if torn < allowed {
				allowed = torn
			}
		} else if op == OpWrite {
			allowed = 0
		}
		r.fired++
		f.injected[r.Kind]++
		if err == nil {
			err = r.Err
		}
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return allowed, err
}

func (f *FS) MkdirAll(dir string, perm os.FileMode) error { return f.base.MkdirAll(dir, perm) }
func (f *FS) Mkdir(dir string, perm os.FileMode) error    { return f.base.Mkdir(dir, perm) }

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if _, err := f.check(OpOpen, name, 0); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	inner, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: name, inner: inner}, nil
}

func (f *FS) CreateTemp(dir, pattern string) (persist.File, error) {
	if _, err := f.check(OpOpen, dir+"/"+pattern, 0); err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	inner, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: inner.Name(), inner: inner}, nil
}

func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) {
	if _, err := f.check(OpRead, dir, 0); err != nil {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: err}
	}
	return f.base.ReadDir(dir)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if _, err := f.check(OpRead, name, 0); err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	return f.base.ReadFile(name)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if _, err := f.check(OpRename, newpath, 0); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error               { return f.base.Remove(name) }
func (f *FS) RemoveAll(dir string) error             { return f.base.RemoveAll(dir) }
func (f *FS) Truncate(name string, size int64) error { return f.base.Truncate(name, size) }
func (f *FS) SyncDir(dir string) error               { return f.base.SyncDir(dir) }

func (f *FS) Map(name string) ([]byte, func(), error) {
	if _, err := f.check(OpRead, name, 0); err != nil {
		return nil, nil, &os.PathError{Op: "map", Path: name, Err: err}
	}
	return f.base.Map(name)
}

// file wraps a base File, injecting write/sync/read faults.
type file struct {
	fs    *FS
	name  string
	inner persist.File
}

func (w *file) Write(p []byte) (int, error) {
	allowed, err := w.fs.check(OpWrite, w.name, len(p))
	if err == nil {
		return w.inner.Write(p)
	}
	n := 0
	if allowed > 0 {
		// Torn write: the allowed prefix genuinely lands in the file
		// before the failure surfaces, like a partial write at the
		// ENOSPC boundary or a crash mid-write would leave.
		n, _ = w.inner.Write(p[:allowed])
	}
	return n, &os.PathError{Op: "write", Path: w.name, Err: err}
}

func (w *file) Sync() error {
	if _, err := w.fs.check(OpSync, w.name, 0); err != nil {
		return &os.PathError{Op: "sync", Path: w.name, Err: err}
	}
	return w.inner.Sync()
}

func (w *file) ReadAt(p []byte, off int64) (int, error) {
	if _, err := w.fs.check(OpRead, w.name, 0); err != nil {
		return 0, &os.PathError{Op: "read", Path: w.name, Err: err}
	}
	return w.inner.ReadAt(p, off)
}

func (w *file) Close() error               { return w.inner.Close() }
func (w *file) Name() string               { return w.name }
func (w *file) Stat() (os.FileInfo, error) { return w.inner.Stat() }
func (w *file) Truncate(size int64) error  { return w.inner.Truncate(size) }

// Parse builds rules from a compact spec: semicolon-separated
// directives, each "kind[:key=value]...". Kinds and their defaults:
//
//	enospc     ENOSPC on writes; usually with after=<bytes>
//	eio        EIO; default op=sync
//	torn       torn write: a random (or torn=<n>-byte) prefix lands, then EIO
//	slow       latency only; needs d=<duration>
//	partition  EIO on EVERY operation class (write, sync, open, read,
//	           rename) — the store is unreachable, as a network
//	           partition or a dead disk controller leaves it. One
//	           directive expands to one rule per class; count= bounds
//	           each class separately. A follower tailing through a
//	           partitioned FS sees its reads fail (and degrades past its
//	           failure streak); a leader sees appends fail. Heal ends it.
//
// Keys: op=<write|sync|open|read|rename>, path=<substring>,
// after=<bytes>, k=<n>, count=<n>, torn=<bytes>, d=<duration>.
//
//	enospc:path=wal-:after=65536
//	eio:op=sync:path=wal-:k=2
//	torn:path=wal-:k=3;slow:d=2ms
//	partition:path=g1
func Parse(spec string) ([]Rule, error) {
	var out []Rule
	for _, dir := range strings.Split(spec, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		parts := strings.Split(dir, ":")
		r := Rule{Kind: parts[0]}
		switch parts[0] {
		case "enospc":
			r.Op, r.Err = OpWrite, syscall.ENOSPC
		case "eio":
			r.Op, r.Err = OpSync, syscall.EIO
		case "torn":
			r.Op, r.Err = OpWrite, syscall.EIO
		case "slow":
			r.Op = OpWrite
		case "partition":
			r.Op, r.Err = OpWrite, syscall.EIO
		default:
			return nil, fmt.Errorf("fault: unknown fault kind %q (want enospc, eio, torn, slow or partition)", parts[0])
		}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: %q: want key=value, got %q", dir, kv)
			}
			var err error
			switch k {
			case "op":
				r.Op, err = ParseOp(v)
			case "path":
				r.Path = v
			case "after":
				r.AfterBytes, err = strconv.ParseInt(v, 10, 64)
			case "k":
				r.Kth, err = strconv.Atoi(v)
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "torn":
				r.TornBytes, err = strconv.Atoi(v)
			case "d":
				r.Delay, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %v", dir, err)
			}
		}
		if r.Kind == "slow" && r.Delay <= 0 {
			return nil, fmt.Errorf("fault: %q: slow needs d=<duration>", dir)
		}
		if r.Kind == "partition" {
			// The store is gone in every direction: one rule per
			// operation class, sharing the directive's filters.
			for _, op := range []Op{OpWrite, OpSync, OpOpen, OpRead, OpRename} {
				pr := r
				pr.Op = op
				out = append(out, pr)
			}
			continue
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault: empty fault spec")
	}
	return out, nil
}
