package shard

import (
	"errors"
	"reflect"
	"testing"

	"github.com/constcomp/constcomp/internal/store"
)

func testIntent(xid uint64) TxRecord {
	return TxRecord{Xid: xid, Kind: txIntent, Coord: 1, Part: 3,
		Old: []string{"emp1", "dept0"}, New: []string{"emp9", "dept0"}}
}

func newTestTxLog(t *testing.T, fsys store.FS) *TxLog {
	t.Helper()
	l, err := createTxLog(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTxLogRoundtrip(t *testing.T) {
	mem := store.NewMemFS()
	l := newTestTxLog(t, mem)
	if err := l.AppendIntent(testIntent(7)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(7); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDone(7); err != nil {
		t.Fatal(err)
	}
	scan, err := ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Damaged || len(scan.Records) != 3 {
		t.Fatalf("scan: %d records, damaged=%v", len(scan.Records), scan.Damaged)
	}
	if !reflect.DeepEqual(scan.Records[0], testIntent(7)) {
		t.Fatalf("intent roundtrip: got %+v", scan.Records[0])
	}
	if scan.Records[1].Kind != txCommit || scan.Records[1].Xid != 7 {
		t.Fatalf("commit roundtrip: got %+v", scan.Records[1])
	}
	if scan.Records[2].Kind != txDone || scan.Records[2].Xid != 7 {
		t.Fatalf("done roundtrip: got %+v", scan.Records[2])
	}
}

func TestReadTxLogMissingFile(t *testing.T) {
	scan, err := ReadTxLog(store.NewMemFS())
	if err != nil || len(scan.Records) != 0 || scan.Damaged {
		t.Fatalf("missing txlog: scan %+v, err %v", scan, err)
	}
}

func TestTxLogTornTailIgnored(t *testing.T) {
	mem := store.NewMemFS()
	l := newTestTxLog(t, mem)
	if err := l.AppendIntent(testIntent(1)); err != nil {
		t.Fatal(err)
	}
	// A power cut mid-append leaves a prefix of the next record.
	full := encodeIntent(testIntent(2))
	if err := l.write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	if err := l.f.Sync(); err != nil {
		t.Fatal(err)
	}
	scan, err := ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 || !scan.Damaged {
		t.Fatalf("torn tail: %d records, damaged=%v", len(scan.Records), scan.Damaged)
	}
	if scan.Records[0].Xid != 1 {
		t.Fatalf("surviving record xid %d", scan.Records[0].Xid)
	}
}

func TestTxLogCorruptRecordStopsScan(t *testing.T) {
	mem := store.NewMemFS()
	l := newTestTxLog(t, mem)
	if err := l.AppendIntent(testIntent(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	if err := mem.Corrupt(TxLogFile, store.FrameHeaderLen+1); err != nil {
		t.Fatal(err)
	}
	scan, err := ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 || !scan.Damaged {
		t.Fatalf("corrupt record: %d records, damaged=%v", len(scan.Records), scan.Damaged)
	}
}

// TestTxLogRepairAfterTornWrite is the regression test for the retry
// hazard: a torn append followed by a successful retry must leave the
// retried record visible to the scanner, not hidden behind garbage.
func TestTxLogRepairAfterTornWrite(t *testing.T) {
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{
		Match:       func(name string) bool { return name == TxLogFile },
		TearWriteAt: 2, // first append succeeds, second tears
		TearKeep:    5,
	})
	l := newTestTxLog(t, ffs)
	if err := l.AppendIntent(testIntent(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendIntent(testIntent(2)); err == nil {
		t.Fatal("torn append reported success")
	}
	// The retry must land where the scanner can reach it.
	if err := l.AppendIntent(testIntent(2)); err != nil {
		t.Fatal(err)
	}
	scan, err := ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 2 || scan.Damaged {
		t.Fatalf("after repair: %d records, damaged=%v", len(scan.Records), scan.Damaged)
	}
	if scan.Records[1].Xid != 2 {
		t.Fatalf("retried record xid %d", scan.Records[1].Xid)
	}
}

func TestTxLogSyncFailureIsIndeterminate(t *testing.T) {
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{
		Match:      func(name string) bool { return name == TxLogFile },
		FailSyncAt: 1,
	})
	l := newTestTxLog(t, ffs)
	err := l.AppendCommit(9)
	if !errors.Is(err, ErrTxIndeterminate) {
		t.Fatalf("sync failure: %v, want ErrTxIndeterminate", err)
	}
	// The bytes are written; a successful retry Sync makes them durable.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	scan, err := ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 || scan.Records[0].Kind != txCommit {
		t.Fatalf("after retried sync and crash: %+v", scan)
	}
}

func TestTxLogReset(t *testing.T) {
	mem := store.NewMemFS()
	l := newTestTxLog(t, mem)
	if err := l.AppendIntent(testIntent(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	// Reset is durable: the records stay gone across a power cut.
	mem.Crash()
	scan, err := ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 || scan.Damaged {
		t.Fatalf("after reset+crash: %d records, damaged=%v", len(scan.Records), scan.Damaged)
	}
	// The log keeps working after a reset.
	if err := l.AppendIntent(testIntent(2)); err != nil {
		t.Fatal(err)
	}
	scan, err = ReadTxLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 || scan.Records[0].Xid != 2 {
		t.Fatalf("append after reset: %+v", scan)
	}
}
