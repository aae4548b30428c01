package store

import (
	"fmt"
	"io"
	"io/fs"
	"sync"
)

// MemFS is an in-memory FS that models the durability boundary real
// disks have, for file contents and directory metadata alike: a file's
// bytes and size — appended, overwritten in place, or cut by a
// handle's Truncate or by Create — are *unsynced* until Sync is called
// on a handle, and namespace changes (create, rename, remove) are
// *unsynced* until SyncDir. Crash simulates power loss by reverting
// every file to its last synced content and the namespace to its last
// SyncDir'd state — so a renamed-in snapshot or a freshly created
// journal vanishes on Crash unless the store fsynced the directory,
// unsynced records written over a recycled journal revert to the
// previous cycle's bytes, and a slot overwrite that was never synced
// reverts to the old image, exactly as on a POSIX filesystem. Tests
// drive a store against MemFS, kill it at an arbitrary point, call
// Crash, and then recover from what a real disk would have retained.
type MemFS struct {
	mu sync.Mutex
	// files is the visible namespace (what Open and new writes see);
	// dir is the durable namespace captured by the last SyncDir. Both
	// map names to shared *memEntry values, so content durability
	// (synced vs visible bytes) is tracked per entry regardless of
	// which names reach it.
	files map[string]*memEntry
	dir   map[string]*memEntry
}

// memEntry is one file: data is what readers and writers see, synced
// what the last Sync made durable. After a Sync the two share a backing
// array (shared), so appends — the journal's steady state — copy
// nothing and Sync is O(1). The first write or cut that would change a
// synced byte moves data to a fresh array, copying only the bytes that
// write does not cover, so an in-place overwrite of a whole snapshot
// slot never copies the old image.
type memEntry struct {
	data   []byte
	synced []byte
	shared bool
}

// writeAt writes p at off, zero-filling any gap past the end.
func (e *memEntry) writeAt(off int, p []byte) {
	end := off + len(p)
	size := max(end, len(e.data))
	switch {
	case e.shared && off < len(e.synced):
		nb := make([]byte, size)
		copy(nb, e.data[:min(off, len(e.data))])
		if end < len(e.data) {
			copy(nb[end:], e.data[end:])
		}
		e.data, e.shared = nb, false
	case size > cap(e.data):
		e.data = append(e.data, make([]byte, size-len(e.data))...)
		e.shared = false
	default:
		old := len(e.data)
		e.data = e.data[:size]
		if off > old {
			clear(e.data[old:off])
		}
	}
	copy(e.data[off:], p)
}

// truncate cuts or zero-extends the visible content to n bytes. A cut
// below the synced length caps data's capacity, so a later append
// reallocates instead of overwriting synced bytes in the shared array.
func (e *memEntry) truncate(n int) {
	switch {
	case n > len(e.data):
		e.writeAt(len(e.data), make([]byte, n-len(e.data)))
	case e.shared && n < len(e.synced):
		e.data = e.data[:n:n]
	default:
		e.data = e.data[:n]
	}
}

// sync makes the visible content durable.
func (e *memEntry) sync() { e.synced, e.shared = e.data, true }

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memEntry), dir: make(map[string]*memEntry)}
}

func cloneNamespace(src map[string]*memEntry) map[string]*memEntry {
	dst := make(map[string]*memEntry, len(src))
	for name, e := range src {
		dst[name] = e
	}
	return dst
}

// Crash simulates power loss: every file reverts to its last synced
// content — unsynced appends, overwrites and truncations alike — and
// the namespace reverts to the last SyncDir: unsynced creates and
// removes are undone, unsynced renames revert to the old binding. Open
// handles into the filesystem keep working (the dead process's handles
// are never used again by a well-formed test).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files = cloneNamespace(m.dir)
	for _, e := range m.files {
		e.data, e.shared = e.synced, true
	}
}

// Bytes returns a copy of the current visible content of name, for
// test assertions. The second result reports whether the file exists.
func (m *MemFS) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.data...), true
}

// Corrupt flips one byte of name at offset, modeling media corruption
// underneath the checksums. It syncs the damage immediately.
func (m *MemFS) Corrupt(name string, offset int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.files[name]
	if !ok {
		return fmt.Errorf("store: corrupt %s: %w", name, fs.ErrNotExist)
	}
	if offset < 0 || offset >= len(e.data) {
		return fmt.Errorf("store: corrupt %s: offset %d out of range", name, offset)
	}
	e.writeAt(offset, []byte{e.data[offset] ^ 0xff})
	e.sync()
	return nil
}

// Create implements FS. An existing entry is cut in place, as O_TRUNC
// cuts the same inode: the name keeps its binding, and the cut, like
// any unsynced change to the content, reverts on Crash until a Sync.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.files[name]; ok {
		e.truncate(0)
	} else {
		m.files[name] = &memEntry{}
	}
	return &memWriteFile{fs: m, name: name}, nil
}

// OpenAppend implements FS: the handle writes at its offset, from 0.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = &memEntry{}
	}
	return &memWriteFile{fs: m, name: name}, nil
}

// Open implements FS. The handle reads a copy of the content at open
// time (synced and unsynced bytes alike — an OS page cache serves
// unsynced writes to readers too).
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("store: open %s: %w", name, fs.ErrNotExist)
	}
	return &memReadFile{data: append([]byte(nil), e.data...)}, nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("store: rename %s: %w", oldname, fs.ErrNotExist)
	}
	m.files[newname] = e
	delete(m.files, oldname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("store: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// SyncDir implements FS: the current namespace becomes the one Crash
// reverts to. File contents keep their own synced/unsynced split — a
// directory fsync does not flush file data.
func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dir = cloneNamespace(m.files)
	return nil
}

// Truncate implements FS. Like DirFS.Truncate it is durable on return:
// the cut applies to the synced content too and never un-happens on
// Crash (though the entry itself still vanishes if its name was never
// SyncDir'd); unsynced bytes below the cut stay unsynced.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.files[name]
	if !ok {
		return fmt.Errorf("store: truncate %s: %w", name, fs.ErrNotExist)
	}
	n := int(size)
	switch {
	case n < 0:
		return fmt.Errorf("store: truncate %s: negative size", name)
	case n > len(e.data):
		return fmt.Errorf("store: truncate %s: size %d beyond end", name, n)
	}
	e.truncate(n)
	if n < len(e.synced) {
		e.synced = e.synced[:n]
	}
	return nil
}

// memWriteFile is a handle from Create or OpenAppend: it writes at its
// offset, which Seek moves.
type memWriteFile struct {
	fs   *MemFS
	name string
	off  int
}

// entry returns the handle's file; the caller holds fs.mu.
func (f *memWriteFile) entry(op string) (*memEntry, error) {
	e, ok := f.fs.files[f.name]
	if !ok {
		return nil, fmt.Errorf("store: %s %s: %w", op, f.name, fs.ErrNotExist)
	}
	return e, nil
}

func (f *memWriteFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	e, err := f.entry("write")
	if err != nil {
		return 0, err
	}
	e.writeAt(f.off, p)
	f.off += len(p)
	return len(p), nil
}

func (f *memWriteFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	e, err := f.entry("seek")
	if err != nil {
		return 0, err
	}
	off, err := seekOffset(f.off, len(e.data), offset, whence)
	if err != nil {
		return 0, err
	}
	f.off = off
	return int64(off), nil
}

func (f *memWriteFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	e, err := f.entry("truncate")
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("store: truncate %s: negative size", f.name)
	}
	e.truncate(int(size))
	return nil
}

func (f *memWriteFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	e, err := f.entry("sync")
	if err != nil {
		return err
	}
	e.sync()
	return nil
}

func (f *memWriteFile) Read([]byte) (int, error) { return 0, io.EOF }
func (f *memWriteFile) Close() error             { return nil }

// seekOffset resolves an io.Seeker request against the current offset
// and file size.
func seekOffset(cur, size int, offset int64, whence int) (int, error) {
	var base int
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = cur
	case io.SeekEnd:
		base = size
	default:
		return 0, fmt.Errorf("store: seek: bad whence %d", whence)
	}
	off := int64(base) + offset
	if off < 0 {
		return 0, fmt.Errorf("store: seek: negative offset %d", off)
	}
	return int(off), nil
}

type memReadFile struct {
	data []byte
	off  int
}

func (f *memReadFile) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memReadFile) Seek(offset int64, whence int) (int64, error) {
	off, err := seekOffset(f.off, len(f.data), offset, whence)
	if err != nil {
		return 0, err
	}
	f.off = off
	return int64(off), nil
}

func (f *memReadFile) Write([]byte) (int, error) {
	return 0, fmt.Errorf("store: file opened read-only")
}
func (f *memReadFile) Truncate(int64) error {
	return fmt.Errorf("store: file opened read-only")
}
func (f *memReadFile) Sync() error  { return nil }
func (f *memReadFile) Close() error { return nil }
