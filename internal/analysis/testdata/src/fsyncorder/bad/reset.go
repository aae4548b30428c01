package bad

// Journal mirrors store.Journal: rewind moves its write offset back to 0
// over records an earlier checkpoint absorbed.
type Journal struct{ f File }

func (j *Journal) rewind() error { return nil }

// RewindFirst rewinds the journal before the checkpoint is durable.
func RewindFirst(slot File, journal *Journal, img []byte) error {
	if _, err := slot.Write(img); err != nil {
		return err
	}
	if err := journal.rewind(); err != nil { // want `journal rewind without a File\.Sync`
		return err
	}
	return slot.Sync()
}

// RewindUnsyncedBranch syncs the slot on one path only.
func RewindUnsyncedBranch(slot File, journal *Journal, img []byte, durable bool) error {
	if _, err := slot.Write(img); err != nil {
		return err
	}
	if durable {
		if err := slot.Sync(); err != nil {
			return err
		}
	}
	return journal.rewind() // want `journal rewind without a File\.Sync`
}
