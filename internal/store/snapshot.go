package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Snapshot file layout: the magic "CCSNAP1\n" followed by exactly one
// frame (see frame.go) whose payload is
//
//	uvarint seq                 — ops folded into this snapshot
//	names                       — universe attribute names, column order
//	uvarint count
//	count × width × (uvarint len, name) — tuples, constants by name
//
// The frame spans the rest of the file and, unlike a log record, has no
// size bound.
//
// A store keeps two snapshot slots, SnapshotFile and SnapshotFile+".1"
// (slotFiles). Create writes the first as a fresh file (<name>.tmp,
// fsynced, renamed into place, directory fsynced) and removes any
// leftover second slot before that directory fsync, so a slot from an
// older store can never outrank the fresh snapshot. From then on a
// checkpoint overwrites, in place, the slot that is not the recovery
// floor — the last checkpoint — and fsyncs it before the journal is
// reset, so a crash mid-overwrite damages only the slot recovery does
// not need. Recover checks both slots' frames and loads the valid one
// with the higher seq (chooseFloor); the other is never trusted.

var snapMagic = []byte("CCSNAP1\n")

// EncodeSnapshot serializes a database image at sequence seq.
func EncodeSnapshot(seq uint64, db *relation.Relation, syms *value.Symbols) ([]byte, error) {
	return newCellEncoder(syms).appendSnapshot(nil, seq, db)
}

// appendSnapshot appends the snapshot image of db at sequence seq.
func (e cellEncoder) appendSnapshot(dst []byte, seq uint64, db *relation.Relation) ([]byte, error) {
	dst = append(dst, snapMagic...)
	start := len(dst)
	dst = binary.AppendUvarint(openFrame(dst), seq)
	dst = AppendNames(dst, db.Universe().Names())
	dst = binary.AppendUvarint(dst, uint64(db.Len()))
	// Walk by position, not with Each: its closure slowed encoding ~10%.
	for i, n := 0, db.Len(); i < n; i++ {
		var err error
		if dst, err = e.appendCells(dst, db.Tuple(i)); err != nil {
			return nil, err
		}
	}
	return sealFrame(dst, start), nil
}

// DecodeSnapshot parses a snapshot image against the expected universe,
// interning constants in syms. Any framing, checksum, or schema
// mismatch is an error: a snapshot is the recovery floor and must be
// wholly intact.
func DecodeSnapshot(data []byte, u *attr.Universe, syms *value.Symbols) (uint64, *relation.Relation, error) {
	seq, c, err := openSnapshot(data)
	if err != nil {
		return 0, nil, err
	}
	db, err := snapshotBody(&c, u, syms)
	if err != nil {
		return 0, nil, err
	}
	return seq, db, nil
}

// openSnapshot checks an image's magic and its frame — checksum, and
// nothing past it — and reads the seq, leaving the cursor at the body.
// It is all recovery needs to rank a slot it may never decode.
func openSnapshot(data []byte) (uint64, Cursor, error) {
	if !bytes.HasPrefix(data, snapMagic) {
		return 0, Cursor{}, fmt.Errorf("store: snapshot: bad magic")
	}
	rest := data[len(snapMagic):]
	body, n, err := splitFrame(rest, noLimit)
	if err != nil {
		return 0, Cursor{}, fmt.Errorf("store: snapshot: %w", err)
	}
	if n != len(rest) {
		return 0, Cursor{}, fmt.Errorf("store: snapshot: %d bytes past the frame", len(rest)-n)
	}
	c := NewCursor(body)
	seq := c.Uvarint()
	if c.bad {
		return 0, Cursor{}, fmt.Errorf("store: snapshot: header: %w", ErrCorrupt)
	}
	return seq, c, nil
}

// snapshotBody decodes the attribute names and tuples that follow the
// seq in an image opened by openSnapshot.
func snapshotBody(c *Cursor, u *attr.Universe, syms *value.Symbols) (*relation.Relation, error) {
	names := c.Names()
	if c.bad {
		return nil, fmt.Errorf("store: snapshot: header: %w", ErrCorrupt)
	}
	if len(names) != u.Size() {
		return nil, fmt.Errorf("store: snapshot: universe width %d, want %d", len(names), u.Size())
	}
	for i, name := range names {
		if want := u.Name(attr.ID(i)); name != want {
			return nil, fmt.Errorf("store: snapshot: attribute %d is %q, want %q", i, name, want)
		}
	}
	count := c.Uvarint()
	db := relation.New(u.All())
	for i := uint64(0); i < count && !c.bad; i++ {
		t := make(relation.Tuple, u.Size())
		for col := range t {
			t[col] = syms.Const(c.name())
		}
		db.Insert(t)
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("store: snapshot: body: %w", err)
	}
	return db, nil
}

// slotFiles are the two snapshot slots (see the layout comment above).
var slotFiles = [2]string{SnapshotFile, SnapshotFile + ".1"}

// encodeImage encodes the snapshot image of db at seq into one buffer
// pre-sized from sizeHint, the previous image's length, plus an eighth
// for growth. The buffer is dropped by the caller rather than held
// between checkpoints.
func encodeImage(syms *value.Symbols, seq uint64, db *relation.Relation, sizeHint int) ([]byte, error) {
	return newCellEncoder(syms).appendSnapshot(make([]byte, 0, sizeHint+sizeHint/8), seq, db)
}

// writeSnapshot is Create's snapshot write: it atomically and durably
// replaces the snapshot at name — the image is written and fsynced
// under a temporary name and renamed into place — removes the second
// slot if one is left over, and makes both namespace changes durable
// with one directory fsync. It returns the image length, the next
// checkpoint's size hint.
func writeSnapshot(fsys FS, name string, seq uint64, db *relation.Relation, syms *value.Symbols, sizeHint int) (int, error) {
	m := smetrics.Load()
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	img, err := encodeImage(syms, seq, db, sizeHint)
	if err != nil {
		return 0, err
	}
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("store: snapshot create: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return 0, fmt.Errorf("store: snapshot rename: %w", err)
	}
	if err := fsys.Remove(slotFiles[1]); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("store: snapshot: removing stale slot: %w", err)
	}
	if err := fsys.SyncDir(); err != nil {
		return 0, fmt.Errorf("store: snapshot dir sync: %w", err)
	}
	if m != nil {
		m.snapshots.Inc()
		m.snapshotNs.ObserveDuration(obs.SinceNS(t0))
	}
	return len(img), nil
}

// snapSlot is a snapshot slot as a session holds it: the write handle,
// opened on the slot's first checkpoint in the session, and whether
// that open created the file, leaving its directory entry to be made
// durable before the journal reset relies on the slot.
type snapSlot struct {
	f       File
	created bool
}

// overwrite writes img over the slot in place and cuts the file to the
// image's length, without syncing. The first call opens the slot with
// Create; later ones rewind the open handle, so a steady-state
// checkpoint makes no namespace change.
func (sl *snapSlot) overwrite(fsys FS, name string, img []byte) error {
	if sl.f == nil {
		f, err := fsys.Create(name)
		if err != nil {
			return fmt.Errorf("store: snapshot create: %w", err)
		}
		sl.f, sl.created = f, true
	} else if _, err := sl.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: snapshot seek: %w", err)
	}
	if _, err := sl.f.Write(img); err != nil {
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := sl.f.Truncate(int64(len(img))); err != nil {
		return fmt.Errorf("store: snapshot truncate: %w", err)
	}
	return nil
}

// ErrNoSnapshot reports that the store holds no snapshot at all — there
// is no session to recover, as opposed to a store that is present but
// damaged. It satisfies errors.Is(err, fs.ErrNotExist).
var ErrNoSnapshot = fmt.Errorf("store: no snapshot: %w", fs.ErrNotExist)

// slotImage is one snapshot slot as recovery finds it.
type slotImage struct {
	exists bool
	seq    uint64
	body   Cursor // positioned past the seq; valid when err is nil
	err    error  // why an existing slot is not a valid image
}

// readSlots reads both slots and checks each one's frame, without
// decoding either body.
func readSlots(fsys FS) ([2]slotImage, error) {
	var slots [2]slotImage
	for i, name := range slotFiles {
		data, err := readAll(fsys, name)
		if err != nil {
			return slots, fmt.Errorf("snapshot %s: %w", name, err)
		}
		if data == nil {
			continue
		}
		sl := &slots[i]
		sl.exists = true
		if sl.seq, sl.body, sl.err = openSnapshot(data); sl.err != nil {
			sl.err = fmt.Errorf("%s: %w", name, sl.err)
		}
	}
	return slots, nil
}

// chooseFloor picks the recovery floor: the valid slot with the higher
// seq. damaged reports that the other slot exists but is not a valid
// image; the slot it replaced may be lost, so the caller must check the
// journal continues the floor before trusting it (the no-rollback rule
// in Recover). With no slot at all the error wraps ErrNoSnapshot; with
// no valid one it is the first slot's damage.
func chooseFloor(slots [2]slotImage) (floor int, damaged bool, err error) {
	valid := func(i int) bool { return slots[i].exists && slots[i].err == nil }
	switch {
	case valid(0) && valid(1):
		if slots[1].seq > slots[0].seq {
			return 1, false, nil
		}
		return 0, false, nil
	case valid(0):
		return 0, slots[1].exists, nil
	case valid(1):
		return 1, slots[0].exists, nil
	case slots[0].exists:
		return 0, false, slots[0].err
	case slots[1].exists:
		return 0, false, slots[1].err
	}
	return 0, false, fmt.Errorf("snapshot %s: %w", SnapshotFile, ErrNoSnapshot)
}
