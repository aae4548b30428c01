package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Journal record payload, carried in one frame (see frame.go):
//
//	uvarint seq      — 1-based op sequence number since database creation
//	byte    kind     — core.UpdateKind
//	names            — the op's Tuple
//	names            — the op's With (replace only)

// Record is one decoded journal entry, with constants as names.
type Record struct {
	Seq   uint64
	Kind  core.UpdateKind
	Tuple []string
	With  []string
}

// Op rebuilds the update operation, interning constants in syms.
func (r Record) Op(syms *value.Symbols) core.UpdateOp {
	mk := func(names []string) relation.Tuple {
		t := make(relation.Tuple, len(names))
		for i, n := range names {
			t[i] = syms.Const(n)
		}
		return t
	}
	op := core.UpdateOp{Kind: r.Kind, Tuple: mk(r.Tuple)}
	if r.Kind == core.UpdateReplace {
		op.With = mk(r.With)
	}
	return op
}

// EncodeRecord frames one journal record. with must be nil unless kind
// is UpdateReplace.
func EncodeRecord(seq uint64, kind core.UpdateKind, tuple, with []string) []byte {
	rec := binary.AppendUvarint(openFrame(nil), seq)
	rec = append(rec, byte(kind))
	rec = AppendNames(rec, tuple)
	if kind == core.UpdateReplace {
		rec = AppendNames(rec, with)
	}
	return sealFrame(rec, 0)
}

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

// DecodeRecord parses one record from the front of data, returning the
// record and the bytes consumed. A prefix of a record (data ends before
// the declared payload does) yields ErrTorn; a complete-looking record
// whose checksum or structure is wrong yields ErrCorrupt. Arbitrary
// input never panics (fuzzed by FuzzJournal).
func DecodeRecord(data []byte) (Record, int, error) {
	payload, n, err := splitFrame(data, maxRecordPayload)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

func decodeRecord(payload []byte) (Record, error) {
	c := NewCursor(payload)
	rec := Record{Seq: c.Uvarint(), Kind: core.UpdateKind(c.Byte())}
	switch rec.Kind {
	case core.UpdateInsert, core.UpdateDelete, core.UpdateReplace:
	default:
		return Record{}, ErrCorrupt
	}
	rec.Tuple = c.Names()
	if rec.Kind == core.UpdateReplace {
		rec.With = c.Names()
	}
	if err := c.End(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// scanRecords hands each intact journal record at the front of data to
// fn; see scanFrames for the returned offset and stop reason.
func scanRecords(data []byte, fn func(Record) error) (int64, error) {
	return scanFrames(data, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		return fn(rec)
	})
}

// JournalScan is the result of decoding a journal image: the good
// record prefix, where it ends, and what (if anything) cut it short.
type JournalScan struct {
	Records []Record
	// GoodBytes is the offset just past the last intact record; recovery
	// truncates the journal here.
	GoodBytes int64
	// Torn reports a partial record tail (the normal residue of a crash
	// mid-append); Corrupt reports a checksum or structure failure.
	Torn    bool
	Corrupt bool
}

// ScanJournal decodes records from the front of a journal image until
// the bytes run out or stop checking out. It never fails: damage is
// reported in the scan, and everything before it is preserved.
func ScanJournal(data []byte) JournalScan {
	var s JournalScan
	var err error
	s.GoodBytes, err = scanRecords(data, func(rec Record) error {
		s.Records = append(s.Records, rec)
		return nil
	})
	s.Torn = errors.Is(err, ErrTorn)
	s.Corrupt = errors.Is(err, ErrCorrupt)
	return s
}

// Journal is an append-only record writer. Each appendEncoded writes a
// buffer of framed records in a single Write call and fsyncs before
// returning: when it returns nil the records are durable. A checkpoint
// empties it in place through f (Session.rotate).
type Journal struct {
	f File
}

func createJournal(fsys FS, name string) (*Journal, error) {
	f, err := fsys.Create(name)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

func openJournalAppend(fsys FS, name string) (*Journal, error) {
	f, err := fsys.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
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
