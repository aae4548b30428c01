package ok

// Journal mirrors store.Journal: rewind moves its write offset back to 0
// over records an earlier checkpoint absorbed.
type Journal struct{ f File }

func (j *Journal) rewind() error {
	_, err := j.f.Seek(0, 0)
	return err
}

// Checkpoint is the in-place checkpoint shape: rewind the slot (a Seek
// that is not a journal rewind), overwrite it, cut it to length, fsync
// it, and only then rewind the journal.
func Checkpoint(slot File, journal *Journal, img []byte) error {
	if _, err := slot.Seek(0, 0); err != nil {
		return err
	}
	if _, err := slot.Write(img); err != nil {
		return err
	}
	if err := slot.Truncate(int64(len(img))); err != nil {
		return err
	}
	if err := slot.Sync(); err != nil {
		return err
	}
	return journal.rewind()
}

// CheckpointBranching syncs on both branches before the shared rewind.
func CheckpointBranching(slot File, journal *Journal, img []byte, fresh bool) error {
	if fresh {
		if _, err := slot.Write(img); err != nil {
			return err
		}
		if err := slot.Sync(); err != nil {
			return err
		}
	} else if err := slot.Sync(); err != nil {
		return err
	}
	return journal.rewind()
}
