package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gedlib/persist"
)

// countingFS wraps the persist.FS a traced server runs on (source D). It
// counts and times what persist asks of the device, and it remembers
// what a crash would keep: each file's length at its last Sync, and
// which renames a SyncDir has made durable since.
type countingFS struct {
	persist.FS

	mu     sync.Mutex
	c      fsCounters
	files  map[string]*fileState // by current path
	ckptAt map[string]time.Time  // checkpoint temp path -> CreateTemp time
}

type fsCounters struct {
	writes, syncs         int
	bytes, walBytes       int64
	ckptBytes             int64
	checkpoints           int
	writeNS, syncNS, ckNS []float64
}

type fileState struct {
	written, synced int64
	// renamedUnsynced marks a file renamed to its current path with no
	// SyncDir of the directory since: after a crash it may not be there.
	renamedUnsynced bool
}

func newCountingFS(base persist.FS) *countingFS {
	return &countingFS{FS: base, files: map[string]*fileState{}, ckptAt: map[string]time.Time{}}
}

func isWAL(path string) bool  { return strings.HasPrefix(filepath.Base(path), "wal-") }
func isCkpt(path string) bool { return strings.HasPrefix(filepath.Base(path), ".tmp-ckpt-") }

// counters returns a copy of the totals so far.
func (fs *countingFS) counters() fsCounters {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := fs.c
	c.writeNS = append([]float64(nil), c.writeNS...)
	c.syncNS = append([]float64(nil), c.syncNS...)
	c.ckNS = append([]float64(nil), c.ckNS...)
	return c
}

// state returns the tracked state of path, created on first sight with
// the length the file has on disk (all of it presumed durable).
func (fs *countingFS) state(path string, size int64) *fileState {
	st := fs.files[path]
	if st == nil {
		st = &fileState{written: size, synced: size}
		fs.files[path] = st
	}
	return st
}

func (fs *countingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, nil // tail reads change nothing a crash could lose
	}
	var size int64
	if info, err := f.Stat(); err == nil {
		size = info.Size()
	}
	fs.mu.Lock()
	fs.state(name, size)
	fs.mu.Unlock()
	return &countingFile{File: f, fs: fs, path: name}, nil
}

func (fs *countingFS) CreateTemp(dir, pattern string) (persist.File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.state(f.Name(), 0)
	if isCkpt(f.Name()) {
		fs.ckptAt[f.Name()] = time.Now()
	}
	fs.mu.Unlock()
	return &countingFile{File: f, fs: fs, path: f.Name()}, nil
}

func (fs *countingFS) Rename(oldpath, newpath string) error {
	if err := fs.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	if st := fs.files[oldpath]; st != nil {
		delete(fs.files, oldpath)
		st.renamedUnsynced = true
		fs.files[newpath] = st
	}
	if t0, ok := fs.ckptAt[oldpath]; ok {
		delete(fs.ckptAt, oldpath)
		fs.c.checkpoints++
		fs.c.ckNS = append(fs.c.ckNS, float64(time.Since(t0)))
	}
	fs.mu.Unlock()
	return nil
}

func (fs *countingFS) Remove(name string) error {
	err := fs.FS.Remove(name)
	fs.mu.Lock()
	delete(fs.files, name)
	delete(fs.ckptAt, name)
	fs.mu.Unlock()
	return err
}

func (fs *countingFS) Truncate(name string, size int64) error {
	if err := fs.FS.Truncate(name, size); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.state(name, size).truncate(size)
	fs.mu.Unlock()
	return nil
}

func (st *fileState) truncate(size int64) {
	st.written = size
	st.synced = min(st.synced, size)
}

func (fs *countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := fs.FS.SyncDir(dir)
	fs.mu.Lock()
	fs.c.syncs++
	fs.c.syncNS = append(fs.c.syncNS, float64(time.Since(t0)))
	if err == nil {
		for path, st := range fs.files {
			if filepath.Dir(path) == filepath.Clean(dir) {
				st.renamedUnsynced = false
			}
		}
	}
	fs.mu.Unlock()
	return err
}

// countingFile is a writable file of countingFS.
type countingFile struct {
	persist.File
	fs   *countingFS
	path string // path at open; a rename moves the state, not the handle
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	fs := f.fs
	fs.mu.Lock()
	fs.c.writes++
	fs.c.writeNS = append(fs.c.writeNS, float64(time.Since(t0)))
	fs.c.bytes += int64(n)
	switch {
	case isWAL(f.path):
		fs.c.walBytes += int64(n)
	case isCkpt(f.path):
		fs.c.ckptBytes += int64(n)
	}
	if st := fs.files[f.path]; st != nil {
		st.written += int64(n)
	}
	fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	fs := f.fs
	fs.mu.Lock()
	fs.c.syncs++
	fs.c.syncNS = append(fs.c.syncNS, float64(time.Since(t0)))
	if st := fs.files[f.path]; err == nil && st != nil {
		st.synced = st.written
	}
	fs.mu.Unlock()
	return err
}

func (f *countingFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if st := f.fs.files[f.path]; st != nil {
		st.truncate(size)
	}
	f.fs.mu.Unlock()
	return nil
}

// crashImage copies the tree under src to dst as a power cut would
// leave it: every tracked file cut to its last synced length, files
// whose rename was never made durable left out, and untracked files
// (none are written behind the wrapper's back) copied whole. Killing a
// process keeps the OS cache, so the cut is made here, on purpose.
func (fs *countingFS) crashImage(src, dst string) error {
	fs.mu.Lock()
	keep := make(map[string]fileState, len(fs.files))
	for path, st := range fs.files {
		keep[path] = *st
	}
	fs.mu.Unlock()
	return copyTree(src, dst, func(path string) (limit int64, ok bool) {
		st, tracked := keep[path]
		if !tracked {
			return -1, true
		}
		return st.synced, !st.renamedUnsynced
	})
}

// wholeFiles is copyTree's cut for a killed process: everything
// survives, OS cache included.
func wholeFiles(string) (int64, bool) { return -1, true }

// copyTree copies the tree under src to dst. cut decides per file how
// many leading bytes survive (-1: all) and whether the file does at all.
func copyTree(src, dst string, cut func(path string) (limit int64, ok bool)) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		limit, ok := cut(path)
		if !ok {
			return nil
		}
		return copyFile(path, filepath.Join(dst, rel), limit)
	})
}

// copyFile copies the first limit bytes of src to dst (all for -1).
func copyFile(src, dst string, limit int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limit >= 0 {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
