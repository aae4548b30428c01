// Failing fixtures for fsyncorder: renames of never-fsynced content
// and exported functions returning with the namespace dirty.
package bad

// File mirrors store.File.
type File interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS mirrors the mutating subset of store.FS.
type FS interface {
	Create(name string) (File, error)
	Rename(oldname, newname string) error
	SyncDir() error
}

// RenameUnsynced promotes content that was never fsynced.
func RenameUnsynced(fsys FS, name string) error {
	if err := fsys.Rename(name+".tmp", name); err != nil { // want `Rename without a preceding File\.Sync`
		return err
	}
	return fsys.SyncDir()
}

// CreateLeaky returns with the new name not yet durable.
func CreateLeaky(fsys FS, name string) (File, error) {
	return fsys.Create(name) // want `namespace change \(Create\) is not followed by SyncDir`
}

// createDirty is an unexported helper ending dirty (allowed on its own)…
func createDirty(fsys FS, name string) (File, error) {
	return fsys.Create(name)
}

// CreateViaHelper inherits the helper's obligation and drops it.
func CreateViaHelper(fsys FS, name string) (File, error) {
	return createDirty(fsys, name) // want `namespace change \(Create\) is not followed by SyncDir`
}
