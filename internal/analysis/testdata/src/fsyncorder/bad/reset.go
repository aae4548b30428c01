package bad

// ResetFirst resets the journal before the checkpoint is durable.
func ResetFirst(slot, journal File, img []byte) error {
	if _, err := slot.Write(img); err != nil {
		return err
	}
	if err := journal.Truncate(0); err != nil { // want `journal reset \(File\.Truncate\(0\)\) without a File\.Sync`
		return err
	}
	return slot.Sync()
}

// ResetUnsyncedBranch syncs the slot on one path only.
func ResetUnsyncedBranch(slot, journal File, img []byte, durable bool) error {
	if _, err := slot.Write(img); err != nil {
		return err
	}
	if durable {
		if err := slot.Sync(); err != nil {
			return err
		}
	}
	return journal.Truncate(0) // want `journal reset \(File\.Truncate\(0\)\) without a File\.Sync`
}
