package store

import (
	"errors"
	"sync"
)

// ErrInjected is the error surfaced by faults a FaultFS injects.
var ErrInjected = errors.New("store: injected fault")

// FaultPlan schedules deterministic faults against the files an FS
// serves. Ordinals are 1-based and count only operations on files whose
// name passes Match; at most one fault fires per plan field.
type FaultPlan struct {
	// Match selects the files the counters observe; nil matches all.
	Match func(name string) bool
	// FailWriteAt makes the nth matching Write fail with no bytes
	// persisted (the device rejected the I/O outright).
	FailWriteAt int
	// TearWriteAt makes the nth matching Write persist only TearKeep
	// bytes — and fsync them, as a device flushing a partial sector
	// would — before failing. This is how torn journal tails are
	// manufactured.
	TearWriteAt int
	TearKeep    int
	// FailSyncAt makes the nth matching Sync fail after the bytes were
	// written; a subsequent Crash on the underlying MemFS then drops
	// them, modeling "write succeeded, fsync lied".
	FailSyncAt int
	// FailSyncDirAt makes the nth SyncDir fail (directory fsyncs have no
	// file name, so Match does not apply); the namespace changes stay
	// visible but not durable.
	FailSyncDirAt int
	// FailSeekAt makes the nth matching File.Seek fail with the handle's
	// offset unchanged.
	FailSeekAt int
}

// FaultFS wraps an FS and injects the faults of a FaultPlan. It is the
// deterministic harness behind the crash-point matrix: one plan per
// crash point, counting journal record writes. A torn write through a
// handle that was rewound with Seek lands in place, as on a disk: on a
// snapshot slot it leaves a prefix of the new image followed by the old
// image's remaining bytes, and on a recycled journal a prefix of the
// batch followed by the previous cycle's bytes.
type FaultFS struct {
	inner FS
	plan  FaultPlan

	mu       sync.Mutex
	writes   int
	syncs    int
	syncDirs int
	seeks    int
	tripped  bool
}

// NewFaultFS wraps inner with the given plan.
func NewFaultFS(inner FS, plan FaultPlan) *FaultFS {
	return &FaultFS{inner: inner, plan: plan}
}

// Writes reports how many matching Write calls have been observed.
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Syncs reports how many matching File.Sync calls have been observed.
func (f *FaultFS) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// SyncDirs reports how many SyncDir calls have been observed.
func (f *FaultFS) SyncDirs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncDirs
}

// Tripped reports whether any scheduled fault has fired.
func (f *FaultFS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

func (f *FaultFS) matches(name string) bool {
	return f.plan.Match == nil || f.plan.Match(name)
}

// tick counts one call in *n and reports whether it is the one failAt
// schedules to fail.
func (f *FaultFS) tick(n *int, failAt int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	*n++
	if *n == failAt {
		f.tripped = true
		return true
	}
	return false
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

// Open implements FS. Reads are never faulted; corruption on the read
// path is modeled by damaging bytes directly (MemFS.Corrupt).
func (f *FaultFS) Open(name string) (File, error) { return f.inner.Open(name) }

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }

// Remove implements FS.
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir() error {
	if f.tick(&f.syncDirs, f.plan.FailSyncDirAt) {
		return ErrInjected
	}
	return f.inner.SyncDir()
}

type faultFile struct {
	fs    *FaultFS
	name  string
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	if !fs.matches(f.name) {
		return f.inner.Write(p)
	}
	fs.mu.Lock()
	fs.writes++
	n := fs.writes
	plan := fs.plan
	if n == plan.FailWriteAt || n == plan.TearWriteAt {
		fs.tripped = true
	}
	fs.mu.Unlock()
	switch n {
	case plan.FailWriteAt:
		return 0, ErrInjected
	case plan.TearWriteAt:
		keep := plan.TearKeep
		if keep > len(p) {
			keep = len(p)
		}
		if keep > 0 {
			if _, err := f.inner.Write(p[:keep]); err != nil {
				return 0, err
			}
			// Persist the torn prefix as a partially flushed sector would be.
			if err := f.inner.Sync(); err != nil {
				return 0, err
			}
		}
		return keep, ErrInjected
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if fs := f.fs; fs.matches(f.name) && fs.tick(&fs.syncs, fs.plan.FailSyncAt) {
		return ErrInjected
	}
	return f.inner.Sync()
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if fs := f.fs; fs.matches(f.name) && fs.tick(&fs.seeks, fs.plan.FailSeekAt) {
		return 0, ErrInjected
	}
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Truncate(size int64) error  { return f.inner.Truncate(size) }
func (f *faultFile) Read(p []byte) (int, error) { return f.inner.Read(p) }
func (f *faultFile) Close() error               { return f.inner.Close() }
