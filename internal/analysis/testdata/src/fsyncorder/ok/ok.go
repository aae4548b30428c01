// Passing fixtures for fsyncorder: namespace changes bracketed by
// File.Sync and SyncDir on the success path. The FS/File interfaces
// mirror internal/store's injectable filesystem; the analyzer
// duck-types any interface offering both the mutator and SyncDir.
package ok

// File mirrors store.File.
type File interface {
	Write(p []byte) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS mirrors the mutating subset of store.FS.
type FS interface {
	Create(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	SyncDir() error
}

// WriteDurable is the canonical tmp-write/Sync/Rename/SyncDir shape.
func WriteDurable(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(name+".tmp", name); err != nil {
		return err
	}
	return fsys.SyncDir()
}

// create leaves the SyncDir obligation to its caller; unexported
// helpers may end dirty.
func create(fsys FS, name string) (File, error) {
	return fsys.Create(name)
}

// CreateDurable discharges the helper's obligation before returning.
func CreateDurable(fsys FS, name string) (File, error) {
	f, err := create(fsys, name)
	if err != nil {
		return nil, err
	}
	if err := fsys.SyncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// RemoveDurable makes the removal durable before returning.
func RemoveDurable(fsys FS, name string) error {
	if err := fsys.Remove(name); err != nil {
		return err
	}
	return fsys.SyncDir()
}
