package bench

import (
	"strings"
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/store"
)

// FSProbe measures the storage layer from outside: it wraps the store FS
// the program is given and counts every byte passed to File.Write,
// split by the file it went to, plus fsyncs, directory syncs, and
// snapshot installs. Counting is one atomic add per call. While a span
// buffer is installed with Trace (the timed phase of a traced run) every
// write, sync, rename, and directory sync is also timed and recorded as
// a span.
type FSProbe struct {
	JournalBytes  atomic.Int64
	SnapshotBytes atomic.Int64
	OtherBytes    atomic.Int64
	Syncs         atomic.Int64 // File.Sync calls on any file
	SyncDirs      atomic.Int64
	Snapshots     atomic.Int64 // snapshot files renamed into place

	spans atomic.Pointer[Spans]
}

// Trace installs (or, with nil, removes) the span buffer; safe while the
// wrapped filesystems are in use.
func (p *FSProbe) Trace(s *Spans) { p.spans.Store(s) }

// ProbeCounts is a point-in-time copy of a probe's counters, so a
// phase's cost is the difference of two copies.
type ProbeCounts struct {
	Journal, Snapshot, Other int64
	Syncs, SyncDirs, Snap    int64
}

// Counts copies the counters.
func (p *FSProbe) Counts() ProbeCounts {
	return ProbeCounts{
		Journal: p.JournalBytes.Load(), Snapshot: p.SnapshotBytes.Load(),
		Other: p.OtherBytes.Load(), Syncs: p.Syncs.Load(),
		SyncDirs: p.SyncDirs.Load(), Snap: p.Snapshots.Load(),
	}
}

// Sub returns c − o field by field.
func (c ProbeCounts) Sub(o ProbeCounts) ProbeCounts {
	return ProbeCounts{
		Journal: c.Journal - o.Journal, Snapshot: c.Snapshot - o.Snapshot,
		Other: c.Other - o.Other, Syncs: c.Syncs - o.Syncs,
		SyncDirs: c.SyncDirs - o.SyncDirs, Snap: c.Snap - o.Snap,
	}
}

// Bytes is every byte counted in c.
func (c ProbeCounts) Bytes() int64 { return c.Journal + c.Snapshot + c.Other }

// Wrap returns fsys with every write-side call measured by p.
func (p *FSProbe) Wrap(fsys store.FS) store.FS { return &probedFS{inner: fsys, p: p} }

type fileKind uint8

const (
	kindOther fileKind = iota
	kindJournal
	kindSnapshot
)

// kindOf classifies a file by the names the store package gives its
// files (the snapshot is written as <SnapshotFile>.tmp).
func kindOf(name string) fileKind {
	switch {
	case name == store.JournalFile:
		return kindJournal
	case strings.HasPrefix(name, store.SnapshotFile):
		return kindSnapshot
	}
	return kindOther
}

type probedFS struct {
	inner store.FS
	p     *FSProbe
}

func (f *probedFS) wrapFile(name string, file store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &probedFile{File: file, kind: kindOf(name), p: f.p}, nil
}

func (f *probedFS) Create(name string) (store.File, error) {
	file, err := f.inner.Create(name)
	return f.wrapFile(name, file, err)
}

func (f *probedFS) OpenAppend(name string) (store.File, error) {
	file, err := f.inner.OpenAppend(name)
	return f.wrapFile(name, file, err)
}

func (f *probedFS) Open(name string) (store.File, error) { return f.inner.Open(name) }

func (f *probedFS) Rename(oldname, newname string) error {
	sp := f.p.spans.Load()
	var t0 int64
	if sp != nil {
		t0 = obs.NowNS()
	}
	err := f.inner.Rename(oldname, newname)
	if sp != nil {
		sp.Record(SpanFSRename, 0, t0, obs.NowNS())
	}
	if err == nil && newname == store.SnapshotFile {
		f.p.Snapshots.Add(1)
	}
	return err
}

func (f *probedFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *probedFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

func (f *probedFS) SyncDir() error {
	sp := f.p.spans.Load()
	var t0 int64
	if sp != nil {
		t0 = obs.NowNS()
	}
	err := f.inner.SyncDir()
	if sp != nil {
		sp.Record(SpanFSSyncDir, 0, t0, obs.NowNS())
	}
	f.p.SyncDirs.Add(1)
	return err
}

type probedFile struct {
	store.File
	kind fileKind
	p    *FSProbe
}

func (f *probedFile) Write(b []byte) (int, error) {
	sp := f.p.spans.Load()
	var t0 int64
	if sp != nil {
		t0 = obs.NowNS()
	}
	n, err := f.File.Write(b)
	if sp != nil {
		sp.Record(SpanFSWrite, 0, t0, obs.NowNS())
	}
	switch f.kind {
	case kindJournal:
		f.p.JournalBytes.Add(int64(len(b)))
	case kindSnapshot:
		f.p.SnapshotBytes.Add(int64(len(b)))
	default:
		f.p.OtherBytes.Add(int64(len(b)))
	}
	return n, err
}

func (f *probedFile) Sync() error {
	sp := f.p.spans.Load()
	var t0 int64
	if sp != nil {
		t0 = obs.NowNS()
	}
	err := f.File.Sync()
	if sp != nil {
		sp.Record(SpanFSSync, 0, t0, obs.NowNS())
	}
	f.p.Syncs.Add(1)
	return err
}
