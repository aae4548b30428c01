package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"github.com/constcomp/constcomp/internal/store"
)

// TxLogFile is the per-shard sidecar transaction log's file name,
// alongside store.JournalFile and store.SnapshotFile in the shard's FS
// root. It lives outside the store journal on purpose: the journal's
// record kinds are a closed set the recovery replayer trusts, and
// two-phase bookkeeping must never be replayable as a data op.
const TxLogFile = "txlog"

// Tx record kinds.
const (
	txIntent byte = iota
	txCommit
	txDone
)

// Txlog record payloads, each carried in one store frame (the same
// framing, checksum, and size bound as the store journal):
//
//	intent: uvarint xid, byte kind=0, uvarint coord, uvarint part,
//	        names old, names new
//	commit: uvarint xid, byte kind=1
//	done:   uvarint xid, byte kind=2
//
// An intent names the full cross-shard replacement so recovery can
// redo either half from the record alone.

// TxRecord is one decoded txlog entry.
type TxRecord struct {
	Xid  uint64
	Kind byte
	// Intent fields (zero for commit/done records).
	Coord int
	Part  int
	Old   []string // the replaced view tuple, owned by Coord
	New   []string // the replacement view tuple, owned by Part
}

func encodeIntent(r TxRecord) []byte {
	payload := binary.AppendUvarint(nil, r.Xid)
	payload = append(payload, txIntent)
	payload = binary.AppendUvarint(payload, uint64(r.Coord))
	payload = binary.AppendUvarint(payload, uint64(r.Part))
	payload = store.AppendNames(payload, r.Old)
	payload = store.AppendNames(payload, r.New)
	return store.AppendFrame(nil, payload)
}

func encodeMark(xid uint64, kind byte) []byte {
	return store.AppendFrame(nil, append(binary.AppendUvarint(nil, xid), kind))
}

// decodeTxRecord parses one record payload; store.ErrCorrupt if it
// does not check out.
func decodeTxRecord(payload []byte) (TxRecord, error) {
	c := store.NewCursor(payload)
	rec := TxRecord{Xid: c.Uvarint(), Kind: c.Byte()}
	switch rec.Kind {
	case txCommit, txDone:
	case txIntent:
		rec.Coord = int(c.Uvarint())
		rec.Part = int(c.Uvarint())
		rec.Old = c.Names()
		rec.New = c.Names()
	default:
		return TxRecord{}, store.ErrCorrupt
	}
	if err := c.End(); err != nil {
		return TxRecord{}, err
	}
	return rec, nil
}

// TxScan is a decoded txlog image: the intact record prefix and where
// it ends. Damage past GoodBytes is the residue of a crash mid-append;
// nothing cuts it in place, because Open recreates every txlog empty
// once the intents are resolved.
type TxScan struct {
	Records   []TxRecord
	GoodBytes int64
	Damaged   bool
}

// scanTx decodes records until the bytes run out or stop checking out.
// A torn tail and a corrupt record read alike: both end the log.
func scanTx(data []byte) TxScan {
	var s TxScan
	var err error
	s.GoodBytes, err = store.ScanFrames(data, func(payload []byte) error {
		rec, err := decodeTxRecord(payload)
		if err == nil {
			s.Records = append(s.Records, rec)
		}
		return err
	})
	s.Damaged = err != nil
	return s
}

// ReadTxLog scans a shard's txlog from fsys. A missing file reads as
// empty (the shard has never coordinated or participated in a
// cross-shard op).
func ReadTxLog(fsys store.FS) (TxScan, error) {
	f, err := fsys.Open(TxLogFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return TxScan{}, nil
		}
		return TxScan{}, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return TxScan{}, err
	}
	return scanTx(data), nil
}

// TxLog is one shard's append-only two-phase sidecar log. It is owned
// by the cross-shard commit path, which runs under Multi's exclusive
// lock — one writer at a time, by construction.
type TxLog struct {
	fsys store.FS
	f    store.File
	// size counts bytes of fully written records. After a failed or
	// short write the file may hold a torn prefix *past* size; repair
	// truncates back to size before any retry can append behind garbage
	// the scanner would stop at.
	size int64
}

// createTxLog starts an empty txlog, truncating any previous contents;
// the caller makes the namespace change durable (SyncDir) before
// trusting any append.
func createTxLog(fsys store.FS) (*TxLog, error) {
	f, err := fsys.Create(TxLogFile)
	if err != nil {
		return nil, err
	}
	return &TxLog{fsys: fsys, f: f}, nil
}

// repair cuts a torn tail left by a failed append: truncate back to
// the last fully written record (durable on return). The write handle
// stays open — both FS implementations write append-only (O_APPEND /
// entry-tail), so the next write lands at the new end. Without this, a
// retried append would land after the garbage and be invisible to
// every future scan — an intent that "succeeded on retry" yet never
// resolves.
func (l *TxLog) repair() error {
	if err := l.fsys.Truncate(TxLogFile, l.size); err != nil {
		return fmt.Errorf("shard: txlog repair truncate: %w", err)
	}
	return nil
}

// write appends rec's bytes, repairing the torn tail on failure so a
// later append starts clean. Durability is the caller's concern.
func (l *TxLog) write(rec []byte) error {
	n, werr := l.f.Write(rec)
	var err error
	switch {
	case werr != nil:
		err = fmt.Errorf("shard: txlog write (%d/%d bytes): %w", n, len(rec), werr)
	case n < len(rec):
		err = fmt.Errorf("shard: short txlog write (%d/%d bytes)", n, len(rec))
	default:
		l.size += int64(len(rec))
		return nil
	}
	if rerr := l.repair(); rerr != nil {
		return fmt.Errorf("%w (and %v)", err, rerr)
	}
	return err
}

// ErrTxIndeterminate marks a txlog append whose bytes were written but
// whose fsync failed: the record may or may not be durable. The commit
// path treats it differently from a plain write failure — an
// indeterminate record cannot simply be presumed absent.
var ErrTxIndeterminate = errors.New("shard: txlog record durability indeterminate")

// append writes rec and fsyncs. A failed or short write is repaired
// (tail truncated) before return and the record is certainly absent; a
// failed sync returns ErrTxIndeterminate — the caller retries Sync or
// escalates.
func (l *TxLog) append(rec []byte) error {
	if err := l.write(rec); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrTxIndeterminate, err)
	}
	return nil
}

// AppendIntent makes a cross-shard intent durable: the op, its
// coordinator, and its participant, fsynced before return. This is the
// first phase; until the coordinator's commit record is durable the op
// is presumed aborted.
func (l *TxLog) AppendIntent(rec TxRecord) error {
	return l.append(encodeIntent(rec))
}

// AppendCommit makes xid's commit record durable on the coordinator's
// txlog — the commit point of the two-phase protocol. It must only be
// called after AppendIntent succeeded on every participant (constvet's
// fsyncorder analyzer enforces the dominance).
func (l *TxLog) AppendCommit(xid uint64) error {
	return l.append(encodeMark(xid, txCommit))
}

// AppendDone marks xid fully applied (or deliberately aborted) on this
// shard, letting recovery skip it. Durability is advisory: a lost done
// record only costs recovery a redundant, idempotent resolution.
func (l *TxLog) AppendDone(xid uint64) error {
	return l.write(encodeMark(xid, txDone))
}

// Sync fsyncs the txlog without appending — the retry primitive for an
// indeterminate AppendIntent/AppendCommit whose bytes were written but
// whose sync failed.
func (l *TxLog) Sync() error { return l.f.Sync() }

// Reset durably empties the txlog (FS.Truncate is durable on return).
// The commit path calls it after both halves of a cross-shard op are in
// their shards' journals — the records have served their purpose — and
// to demote an indeterminate commit record into a durable abort:
// truncating the maybe-durable record is the one way to force the
// presumed-abort reading on every future recovery.
func (l *TxLog) Reset() error {
	if err := l.fsys.Truncate(TxLogFile, 0); err != nil {
		return fmt.Errorf("shard: txlog reset: %w", err)
	}
	l.size = 0
	return nil
}

// Close releases the file handle.
func (l *TxLog) Close() error { return l.f.Close() }
