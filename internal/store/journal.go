package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/value"
)

// Journal record payload, carried in one frame (see frame.go):
//
//	uvarint seq — 1-based op sequence number since database creation
//	op          — the op payload (see frame.go)

// EncodeOp frames an update operation as a journal record.
func EncodeOp(seq uint64, op core.UpdateOp, syms *value.Symbols) ([]byte, error) {
	rec, err := newCellEncoder(syms).appendOp(nil, seq, op)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// appendOp appends op to dst as one framed journal record numbered seq.
// On error dst comes back with its original length.
func (e cellEncoder) appendOp(dst []byte, seq uint64, op core.UpdateOp) ([]byte, error) {
	switch op.Kind {
	case core.UpdateInsert, core.UpdateDelete, core.UpdateReplace:
	default:
		return dst, fmt.Errorf("store: cannot journal unknown update kind %v", op.Kind)
	}
	start := len(dst)
	rec := binary.AppendUvarint(openFrame(dst), seq)
	rec = append(rec, byte(op.Kind))
	rec, err := e.appendTuple(rec, op.Tuple)
	if err == nil && op.Kind == core.UpdateReplace {
		rec, err = e.appendTuple(rec, op.With)
	}
	if err != nil {
		return rec[:start], err
	}
	return sealFrame(rec, start), nil
}

// splitRecord splits a journal record's payload into its seq and its
// op payload, checking the op's structure without interning a name and
// without allocating.
func splitRecord(payload []byte) (uint64, []byte, error) {
	c := cursor{data: payload}
	seq := c.uvarint()
	op := payload[c.off:]
	if c.op(-1, -1); !c.done() {
		return 0, nil, ErrCorrupt
	}
	return seq, op, nil
}

// ScanJournal hands the seq and op payload of each intact record at the
// front of a journal image to fn, in order, until the bytes run out or
// stop checking out — the one torn-tail scan. It returns the offset
// just past the last record fn accepted, and why it stopped: nil when
// every byte was consumed, ErrTorn or ErrCorrupt for a damaged frame or
// op, or fn's own error, which leaves the record fn refused outside the
// good prefix. It never reads past data, allocates nothing and interns
// nothing: each op payload is a sub-slice of data, checked for
// DecodeOp. Arbitrary input never panics (fuzzed by FuzzJournal).
func ScanJournal(data []byte, fn func(seq uint64, op []byte) error) (int64, error) {
	var off int64
	for int(off) < len(data) {
		payload, n, err := splitFrame(data[off:], maxRecordPayload)
		var seq uint64
		var op []byte
		if err == nil {
			seq, op, err = splitRecord(payload)
		}
		if err == nil {
			err = fn(seq, op)
		}
		if err != nil {
			return off, err
		}
		off += int64(n)
	}
	return off, nil
}

// Journal is the record writer. Each appendEncoded writes a buffer of
// framed records at the handle's offset in a single Write call and
// fsyncs before returning: when it returns nil the records are durable.
// A checkpoint rewinds it to offset 0 (Session.rotate) without cutting
// it, so the next cycle's records overwrite the blocks the file already
// holds and its fsyncs commit no size change. Bytes past the live
// records are an earlier cycle's; each record's seq, inside its
// checksum, tells the two apart (see Recover).
type Journal struct {
	f File
}

// createJournal starts an empty journal at name under a new directory
// entry, which the caller's SyncDir makes durable. A previous journal is
// removed rather than cut in place: a cut is durable only after an fsync
// of the file, and a record an older store left must not come back
// under the fresh snapshot's seqs.
func createJournal(fsys FS, name string) (*Journal, error) {
	if err := fsys.Remove(name); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	f, err := fsys.Create(name)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// openJournalAt opens the journal at name, creating it if absent, with
// its write offset at off: the end of the live records Recover kept.
func openJournalAt(fsys FS, name string, off int64) (*Journal, error) {
	f, err := fsys.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// rewind moves the write offset back to 0, leaving the file's bytes and
// size as they are. The records it lets the next cycle overwrite must
// be covered by a durable checkpoint first (fsyncorder rule 3).
func (j *Journal) rewind() error {
	_, err := j.f.Seek(0, io.SeekStart)
	return err
}

// appendEncoded makes a buffer of pre-framed records durable in one
// Write and one Sync — the group-commit primitive. A single Apply is a
// batch of one. The buffer is not retained (File.Write never keeps it),
// so the caller may reuse it.
func (j *Journal) appendEncoded(buf []byte, records int) error {
	m := smetrics.Load()
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	n, err := j.f.Write(buf)
	if err != nil {
		return fmt.Errorf("store: journal write (%d/%d bytes): %w", n, len(buf), err)
	}
	if n < len(buf) {
		return fmt.Errorf("store: short journal write (%d/%d bytes)", n, len(buf))
	}
	var tSync int64
	if m != nil {
		tSync = obs.NowNS()
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	if m != nil {
		now := obs.NowNS()
		m.fsyncNs.ObserveDuration(now - tSync)
		m.appendNs.ObserveDuration(now - t0)
		m.journalRecords.Add(int64(records))
		m.journalBytes.Add(int64(len(buf)))
		m.journalBatches.Inc()
		m.batchRecords.Observe(float64(records))
	}
	return nil
}

// Sync fsyncs the journal file without appending. Recovery uses it to
// make replayed-but-possibly-unsynced records durable before any new op
// is acknowledged on top of them.
func (j *Journal) Sync() error { return j.f.Sync() }

// Close releases the underlying file.
func (j *Journal) Close() error { return j.f.Close() }
