package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// A snapshot is written to <name>.tmp, fsynced, renamed over <name>,
// and the directory is fsynced, so a crash mid-write leaves the
// previous snapshot intact and at most a stray .tmp file, and a crash
// after writeSnapshot returns cannot revert the rename.

var snapMagic = []byte("CCSNAP1\n")

// EncodeSnapshot serializes a database image at sequence seq.
func EncodeSnapshot(seq uint64, db *relation.Relation, syms *value.Symbols) ([]byte, error) {
	u := db.Universe()
	body := binary.AppendUvarint(nil, seq)
	body = AppendNames(body, u.Names())
	body = binary.AppendUvarint(body, uint64(db.Len()))
	for _, t := range db.Tuples() {
		names, err := tupleNames(t, syms)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			body = appendName(body, n)
		}
	}
	return AppendFrame(append([]byte(nil), snapMagic...), body), nil
}

// DecodeSnapshot parses a snapshot image against the expected universe,
// interning constants in syms. Any framing, checksum, or schema
// mismatch is an error: a snapshot is the recovery floor and must be
// wholly intact.
func DecodeSnapshot(data []byte, u *attr.Universe, syms *value.Symbols) (uint64, *relation.Relation, error) {
	if !bytes.HasPrefix(data, snapMagic) {
		return 0, nil, fmt.Errorf("store: snapshot: bad magic")
	}
	rest := data[len(snapMagic):]
	body, n, err := splitFrame(rest, noLimit)
	if err != nil {
		return 0, nil, fmt.Errorf("store: snapshot: %w", err)
	}
	if n != len(rest) {
		return 0, nil, fmt.Errorf("store: snapshot: %d bytes past the frame", len(rest)-n)
	}
	c := NewCursor(body)
	seq := c.Uvarint()
	names := c.Names()
	if c.bad {
		return 0, nil, fmt.Errorf("store: snapshot: header: %w", ErrCorrupt)
	}
	if len(names) != u.Size() {
		return 0, nil, fmt.Errorf("store: snapshot: universe width %d, want %d", len(names), u.Size())
	}
	for i, name := range names {
		if want := u.Name(attr.ID(i)); name != want {
			return 0, nil, fmt.Errorf("store: snapshot: attribute %d is %q, want %q", i, name, want)
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
		return 0, nil, fmt.Errorf("store: snapshot: body: %w", err)
	}
	return seq, db, nil
}

// writeSnapshot atomically and durably replaces the snapshot at name:
// the image is written and fsynced under a temporary name, renamed into
// place, and the rename is made durable with a directory fsync.
func writeSnapshot(fsys FS, name string, seq uint64, db *relation.Relation, syms *value.Symbols) error {
	m := smetrics.Load()
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	img, err := EncodeSnapshot(seq, db, syms)
	if err != nil {
		return err
	}
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: snapshot create: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	if err := fsys.SyncDir(); err != nil {
		return fmt.Errorf("store: snapshot dir sync: %w", err)
	}
	if m != nil {
		m.snapshots.Inc()
		m.snapshotNs.ObserveDuration(obs.SinceNS(t0))
	}
	return nil
}

// ErrNoSnapshot reports that the store holds no snapshot at all — there
// is no session to recover, as opposed to a store that is present but
// damaged. It satisfies errors.Is(err, fs.ErrNotExist).
var ErrNoSnapshot = fmt.Errorf("store: no snapshot: %w", fs.ErrNotExist)

// readSnapshot loads the snapshot at name. A missing file returns an
// error satisfying errors.Is(err, ErrNoSnapshot).
func readSnapshot(fsys FS, name string, u *attr.Universe, syms *value.Symbols) (uint64, *relation.Relation, error) {
	data, err := readAll(fsys, name)
	if err != nil {
		return 0, nil, err
	}
	if data == nil {
		return 0, nil, fmt.Errorf("store: snapshot %s: %w", name, ErrNoSnapshot)
	}
	return DecodeSnapshot(data, u, syms)
}
