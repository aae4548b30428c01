// Package store is the crash-safe durability layer under core.Session:
// a checksummed, length-prefixed journal of applied update operations
// plus periodic snapshots, with recovery that replays the journal onto
// the last good snapshot, truncates torn or corrupt tails, and
// re-verifies the constant-complement invariant after replay.
//
// Every checksummed byte on disk — a journal record, a snapshot's
// body — is one frame of the shared layer in frame.go, and scanFrames
// is the one torn-tail scan.
//
// All file access goes through the small FS interface so that tests can
// inject faults — failed or torn writes, failed fsyncs, simulated power
// loss — at every journal record boundary (see FaultFS and MemFS). The
// production implementation is DirFS.
//
// Durability contract: a record is appended to the journal and fsynced
// after the in-memory apply succeeds and before Apply returns success,
// so the journal holds exactly the applied operations in order. A crash
// at any point preserves every acknowledged operation; the single op in
// flight (if any) was never acknowledged and its outcome is
// indeterminate — it is usually lost, but a record that reached the
// disk before the failure surfaced is replayed by Recover. Replaying
// the journal onto the last good snapshot is deterministic because the
// translation procedures themselves are.
package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the store needs: reads, writes at the
// handle's offset (always at the end for a handle from OpenAppend),
// Seek, Truncate and fsync. A checkpoint rewinds a snapshot slot with
// Seek, overwrites it in place and cuts it to the new image's length
// with Truncate; the journal is reset with Truncate(0). Like written
// bytes, a size change made through a handle is durable only once Sync
// returns. As io.Writer requires, Write must not retain its buffer: the
// store reuses one group-commit buffer across batches.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the injectable filesystem under the store. Implementations:
// DirFS (production, a directory on disk), MemFS (tests, with an
// explicit synced/unsynced distinction for both file contents and
// directory metadata, so power loss can be simulated), FaultFS (wraps
// another FS and injects faults).
//
// Namespace operations (Create, OpenAppend's implicit create, Rename,
// Remove) take effect immediately but are not durable across power
// loss until SyncDir returns; File.Sync makes only a file's *contents*
// (and size) durable. FS.Truncate is durable on return; File.Truncate
// is not.
//
// Missing files surface as errors satisfying errors.Is(err,
// io/fs.ErrNotExist).
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes, durably.
	Truncate(name string, size int64) error
	// SyncDir makes all prior namespace changes (creates, renames,
	// removes) durable, the way fsyncing a directory does on a POSIX
	// filesystem.
	SyncDir() error
}

// DirFS is the production FS: files inside a root directory.
type DirFS struct {
	root string
}

// NewDirFS returns an FS rooted at dir, creating the directory if
// needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &DirFS{root: dir}, nil
}

func (d *DirFS) path(name string) string { return filepath.Join(d.root, name) }

// Create implements FS.
func (d *DirFS) Create(name string) (File, error) { return os.Create(d.path(name)) }

// OpenAppend implements FS.
func (d *DirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o666)
}

// Open implements FS.
func (d *DirFS) Open(name string) (File, error) { return os.Open(d.path(name)) }

// Rename implements FS.
func (d *DirFS) Rename(oldname, newname string) error {
	return os.Rename(d.path(oldname), d.path(newname))
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error { return os.Remove(d.path(name)) }

// Truncate implements FS. The new size is fsynced before returning, so
// a cut journal tail cannot reappear after power loss.
func (d *DirFS) Truncate(name string, size int64) error {
	f, err := os.OpenFile(d.path(name), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir implements FS: it fsyncs the root directory so renames,
// creates, and removes survive power loss.
func (d *DirFS) SyncDir() error {
	f, err := os.Open(d.root)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readAll reads the full contents of name, returning a nil slice (and
// nil error) when the file does not exist.
func readAll(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
