package persist

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// FS abstracts every filesystem operation the store performs, so the
// whole durability stack — WAL appends, checkpoint temp+rename,
// recovery reads, follower tailing — can run against an injected
// implementation. Production uses the OS-backed default (OSFS);
// persist/fault layers deterministic fault schedules (ENOSPC budgets,
// EIO on the Kth sync, torn writes, latency) over any base FS for
// chaos testing. The seam is a handful of interface calls on paths the
// disk itself dominates, so it costs nothing measurable when the
// default is in place.
type FS interface {
	// MkdirAll and Mkdir mirror the os functions; Mkdir must return an
	// os.IsExist-satisfying error for an existing directory.
	MkdirAll(dir string, perm os.FileMode) error
	Mkdir(dir string, perm os.FileMode) error
	// OpenFile opens name with os.OpenFile semantics. WAL segments are
	// opened O_CREATE|O_WRONLY|O_APPEND for writing and O_RDONLY for
	// tailing.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates an exclusive temp file in dir with os.CreateTemp
	// pattern semantics; checkpoints are staged through it.
	CreateTemp(dir, pattern string) (File, error)
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(dir string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and removals in it
	// durable. Best effort: some filesystems refuse directory fsync.
	SyncDir(dir string) error
	// Map maps (or reads) a whole file read-only, returning the bytes
	// and an unmapping closure. The checkpoint loader aliases typed
	// column views into the returned bytes.
	Map(name string) ([]byte, func(), error)
}

// File is the handle FS.OpenFile/CreateTemp return — the subset of
// *os.File the store uses. Write is append-positioned for WAL segments
// (opened O_APPEND); ReadAt serves follower tail reads.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// OSFS returns the default FS backed directly by package os.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) Mkdir(dir string, perm os.FileMode) error    { return os.Mkdir(dir, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) RemoveAll(dir string) error                { return os.RemoveAll(dir) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) Map(name string) ([]byte, func(), error) { return mapFile(name) }

// transientErrnos are the I/O errors worth retrying in place: the
// operation may well succeed a moment later without anything having
// been repaired. Everything else — ENOSPC, EROFS, unknown failures —
// is treated as permanent: retrying in a hot loop cannot help, the
// graph must degrade and recover through the heal path. Note that a
// FAILED FSYNC is never retried regardless of class (the kernel may
// have dropped the dirty pages on the first failure, so a succeeding
// retry proves nothing); serve degrades on it and heals by rewriting a
// full checkpoint.
var transientErrnos = []error{
	syscall.EINTR,
	syscall.EAGAIN,
	syscall.EBUSY,
	syscall.ETIMEDOUT,
	syscall.EIO,
}

// IsTransient reports whether err is a plausibly transient I/O error —
// one a caller may retry with backoff before giving the operation up
// as a permanent failure.
func IsTransient(err error) bool {
	for _, e := range transientErrnos {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
