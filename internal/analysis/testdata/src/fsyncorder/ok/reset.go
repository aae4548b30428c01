package ok

// Checkpoint is the in-place checkpoint shape: overwrite the slot, cut
// it to length (a Truncate that is not a reset), fsync it, and only then
// reset the journal.
func Checkpoint(slot, journal File, img []byte) error {
	if _, err := slot.Write(img); err != nil {
		return err
	}
	if err := slot.Truncate(int64(len(img))); err != nil {
		return err
	}
	if err := slot.Sync(); err != nil {
		return err
	}
	return journal.Truncate(0)
}

// CheckpointBranching syncs on both branches before the shared reset.
func CheckpointBranching(slot, journal File, img []byte, fresh bool) error {
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
	return journal.Truncate(0)
}
