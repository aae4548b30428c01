package store

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// batchImage frames ops[0:n] exactly as ApplyOpsCtx does (seq 1..n) so
// tests can locate record boundaries inside the single group-commit
// write.
func batchImage(t *testing.T, n int) (image []byte, boundaries []int) {
	t.Helper()
	_, _, syms := edmFixture()
	boundaries = []int{0}
	for i, op := range ops50(syms)[:n] {
		rec, err := EncodeOp(uint64(i+1), op, syms)
		if err != nil {
			t.Fatal(err)
		}
		image = append(image, rec...)
		boundaries = append(boundaries, len(image))
	}
	return image, boundaries
}

// TestBatchCrashMatrixEveryByte is the group-commit acceptance matrix:
// an 8-op batch whose single journal write is torn at EVERY byte
// boundary of the batch image. Whatever prefix of whole records
// survives must recover cleanly — correct op count, correct database,
// torn-tail (never corrupt, never data loss) — and the revived session
// must complete the remaining workload.
func TestBatchCrashMatrixEveryByte(t *testing.T) {
	const batchN = 8
	image, boundaries := batchImage(t, batchN)
	for keep := 0; keep <= len(image); keep++ {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, FaultPlan{Match: journalOnly, TearWriteAt: 1, TearKeep: keep})
		pair, db, syms := edmFixture()
		st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatalf("keep=%d: create: %v", keep, err)
		}
		items, err := applyOps(context.Background(), st, ops50(syms)[:batchN])
		if !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("keep=%d: torn batch write surfaced as %v, want ErrSessionBroken", keep, err)
		}
		// Every op decided cleanly in memory; the batch fsync failed.
		if len(items) != batchN {
			t.Fatalf("keep=%d: %d items, want %d", keep, len(items), batchN)
		}
		// The broken session refuses further batches.
		if _, err := applyOps(context.Background(), st, ops50(syms)[:1]); !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("keep=%d: broken session accepted a batch (%v)", keep, err)
		}

		mem.Crash()
		// k = whole records within the kept prefix; a tear strictly
		// inside record k+1 leaves a torn tail.
		k := 0
		for k+1 < len(boundaries) && boundaries[k+1] <= keep {
			k++
		}
		wantTorn := keep != boundaries[k]
		syms2 := value.NewSymbols()
		rec, rep, err := Recover(mem, pair, syms2, Options{})
		if err != nil {
			t.Fatalf("keep=%d: recover: %v", keep, err)
		}
		if rep.Torn != wantTorn || rep.Corrupt {
			t.Fatalf("keep=%d: tail report torn=%v corrupt=%v, want torn=%v corrupt=false",
				keep, rep.Torn, rep.Corrupt, wantTorn)
		}
		if !rep.InvariantOK {
			t.Fatalf("keep=%d: invariant not re-verified: %+v", keep, rep)
		}
		if got := rep.SnapshotSeq + uint64(rep.Replayed); got != uint64(k) {
			t.Fatalf("keep=%d: recovered seq %d, want %d whole records", keep, got, k)
		}
		if got, want := render(rec.Database(), syms2), referenceAfter(t, k); got != want {
			t.Fatalf("keep=%d: recovered database:\n%s\nwant:\n%s", keep, got, want)
		}
		// The revived session finishes the workload from the surviving
		// prefix and lands on the full-run state.
		ops2 := ops50(syms2)
		items, err = applyOps(context.Background(), rec, ops2[k:])
		if err != nil {
			t.Fatalf("keep=%d: post-recovery completion: %v", keep, err)
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("keep=%d: post-recovery completion, op %d: %v", keep, k+i, it.Err)
			}
		}
		if got, want := render(rec.Database(), syms2), referenceAfter(t, 50); got != want {
			t.Fatalf("keep=%d: post-recovery state diverged:\n%s\nwant:\n%s", keep, got, want)
		}
	}
}

// TestBatchCrashPowerLoss covers the MemFS power-loss modes on the
// single batch write: a failed write keeps nothing, and a failed fsync
// keeps nothing a crash can't drop (bytes were written but never made
// durable). Either way no op of the batch survives, and none was
// acknowledged as durable.
func TestBatchCrashPowerLoss(t *testing.T) {
	plans := map[string]FaultPlan{
		"failWrite": {Match: journalOnly, FailWriteAt: 1},
		"failSync":  {Match: journalOnly, FailSyncAt: 1},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			mem := NewMemFS()
			ffs := NewFaultFS(mem, plan)
			pair, db, syms := edmFixture()
			st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := applyOps(context.Background(), st, ops50(syms)[:8]); !errors.Is(err, ErrSessionBroken) {
				t.Fatalf("batch fault surfaced as %v, want ErrSessionBroken", err)
			}
			mem.Crash()
			syms2 := value.NewSymbols()
			rec, rep, err := Recover(mem, pair, syms2, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.SnapshotSeq+uint64(rep.Replayed) != 0 || rep.Corrupt {
				t.Fatalf("unacknowledged batch partially recovered: %+v", rep)
			}
			if got, want := render(rec.Database(), syms2), referenceAfter(t, 0); got != want {
				t.Fatalf("recovered database:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestApplyAllGroupCommit: applying all of a 50-op script as one
// ApplyOpsCtx group commit costs ONE journal write + fsync, not 50,
// and the result is both correct and durable.
func TestApplyAllGroupCommit(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{Match: journalOnly})
	pair, db, syms := edmFixture()
	st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	items, err := applyOps(context.Background(), st, ops50(syms))
	if err != nil || len(items) != 50 {
		t.Fatalf("ApplyOpsCtx = %d items, %v; want 50, nil", len(items), err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("op %d: %v", i, it.Err)
		}
	}
	if got := ffs.Writes(); got != 1 {
		t.Errorf("50-op script issued %d journal writes, want 1 group commit", got)
	}
	if got := reg.Histogram("store_journal_fsync_ns").Count(); got != 1 {
		t.Errorf("50-op script issued %d journal fsyncs, want 1", got)
	}
	if st.Seq() != 50 {
		t.Errorf("Seq = %d, want 50", st.Seq())
	}
	if got, want := render(st.Database(), syms), referenceAfter(t, 50); got != want {
		t.Errorf("group-commit state:\n%s\nwant:\n%s", got, want)
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{})
	if err != nil || rep.SnapshotSeq+uint64(rep.Replayed) != 50 {
		t.Fatalf("recover: %v, %+v", err, rep)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 50); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
}

// TestApplyBatchContinuesPastRejection pins the pipeline semantics of
// ApplyOpsCtx: every op is attempted, rejections ride along in their
// items, and the applied ops around them share one durable fsync.
func TestApplyBatchContinuesPastRejection(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(e, d string) relation.Tuple {
		return relation.Tuple{syms.Const(e), syms.Const(d)}
	}
	ops := []core.UpdateOp{
		core.Insert(tup("zed", "dept0")),
		core.Insert(tup("emp1", "dept0")), // emp1 is in dept1: E→D rejects it; batch continues
		core.Insert(tup("pat", "dept1")),
	}
	items, err := applyOps(context.Background(), st, ops)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Errorf("applied ops carry errors: %v, %v", items[0].Err, items[2].Err)
	}
	if !errors.Is(items[1].Err, core.ErrRejected) {
		t.Errorf("items[1].Err = %v, want ErrRejected", items[1].Err)
	}
	if items[1].Decision == nil || items[1].Decision.Translatable {
		t.Error("rejected item's decision missing or marked translatable")
	}
	if st.Seq() != 2 {
		t.Errorf("Seq = %d, want 2 (rejection consumes no seq)", st.Seq())
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{})
	if err != nil || rep.Replayed+int(rep.SnapshotSeq) != 2 {
		t.Fatalf("recover: %v, %+v", err, rep)
	}
	v := rec.View()
	if !v.Contains(relation.Tuple{syms2.Const("zed"), syms2.Const("dept0")}) ||
		!v.Contains(relation.Tuple{syms2.Const("pat"), syms2.Const("dept1")}) {
		t.Error("batch ops around the rejection not durable")
	}
}

// TestApplyBatchCancelledContext: a dead context fails every op in the
// batch without touching the journal or the database.
func TestApplyBatchCancelledContext(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{Match: journalOnly})
	pair, db, syms := edmFixture()
	st, err := Create(ffs, pair, db, syms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := applyOps(ctx, st, ops50(syms)[:4])
	if err != nil {
		t.Fatalf("cancelled batch broke the session: %v", err)
	}
	for i, it := range items {
		if it.Err == nil {
			t.Errorf("item %d applied under a cancelled context", i)
		}
	}
	if ffs.Writes() != 0 {
		t.Errorf("cancelled batch wrote %d times to the journal", ffs.Writes())
	}
	if st.Seq() != 0 {
		t.Errorf("Seq = %d, want 0", st.Seq())
	}
	// The session is healthy: the same batch applies once the context
	// pressure is gone.
	if _, err := applyOps(context.Background(), st, ops50(syms)[:4]); err != nil {
		t.Fatalf("healthy session refused work after cancelled batch: %v", err)
	}
}

// TestBatchSnapshotRotation: batches count toward the snapshot cadence,
// so a batch crossing the threshold rotates exactly like serial
// appends do.
func TestBatchSnapshotRotation(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyOps(context.Background(), st, ops50(syms)[:10]); err != nil {
		t.Fatal(err)
	}
	if err := st.SnapshotErr(); err != nil {
		t.Fatalf("snapshot rotation failed: %v", err)
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq != 10 {
		t.Errorf("SnapshotSeq = %d, want 10 (rotation covers the whole batch)", rep.SnapshotSeq)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 10); got != want {
		t.Errorf("recovered database:\n%s\nwant:\n%s", got, want)
	}
}

// TestMixedBatchSingleFsync pins the batch path for Theorem 8/9 ops:
// a group commit mixing inserts, deletes, and replaces — not just
// inserts — lands as ONE journal batch with ONE fsync, and with the
// incremental path on (the default) every op still applies. This is
// what lets the per-delta benchmarks measure mixed batches.
func TestMixedBatchSingleFsync(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	pair, db, syms := edmFixture()
	st, err := Create(NewMemFS(), pair, db, syms, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !st.IncrementalEnabled() {
		t.Fatal("incremental maintenance should default on")
	}
	tup := func(name string, d int) relation.Tuple {
		return relation.Tuple{syms.Const(name), syms.Const(fmt.Sprintf("dept%d", d%2))}
	}
	batch := []core.UpdateOp{
		core.Insert(tup("ba", 0)),
		core.Insert(tup("bb", 1)),
		core.Insert(tup("bc", 0)),
		core.Replace(tup("bc", 0), tup("bc", 1)),
		core.Delete(tup("ba", 0)),
		core.Delete(tup("bb", 1)),
		core.Insert(tup("bd", 0)),
		core.Delete(tup("bc", 1)),
	}
	items, err := applyOps(context.Background(), st, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("op %d: %v", i, it.Err)
		}
	}
	if got := reg.Counter("store_journal_batches_total").Value(); got != 1 {
		t.Errorf("store_journal_batches_total = %d, want 1 (the whole mixed batch shares a commit)", got)
	}
	if got := reg.Histogram("store_journal_fsync_ns").Count(); got != 1 {
		t.Errorf("fsync count = %d, want 1", got)
	}
	if got := reg.Counter("store_journal_records_total").Value(); got != int64(len(batch)) {
		t.Errorf("store_journal_records_total = %d, want %d", got, len(batch))
	}
}

// TestBatchSourceLateMembersShareCommit pins the BatchSource contract
// the serving pipeline's late joins rely on: the source is asked for
// member i only after members 0..i-1 were applied in memory and before
// anything is journaled, and every member it yields — late ones
// included — goes out in the batch's single write and fsync.
func TestBatchSourceLateMembersShareCommit(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{Match: journalOnly})
	pair, db, syms := edmFixture()
	st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)[:8]
	asked := 0
	next := func(i int) (BatchOp, bool) {
		asked++
		if i > 0 {
			// Member i-1 is applied, nothing is journaled yet.
			if got, want := render(st.Database(), syms), referenceAfter(t, i); got != want {
				t.Errorf("state before member %d:\n%s\nwant:\n%s", i, got, want)
			}
		}
		if st.Seq() != 0 || ffs.Writes() != 0 {
			t.Errorf("member %d requested after the batch was journaled (seq %d, %d writes)", i, st.Seq(), ffs.Writes())
		}
		if i == len(ops) {
			return BatchOp{}, false
		}
		return BatchOp{Ctx: context.Background(), Op: ops[i]}, true
	}
	items, err := st.ApplyOpsCtx(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(ops) || asked != len(ops)+1 {
		t.Fatalf("%d items from %d source calls, want %d from %d", len(items), asked, len(ops), len(ops)+1)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("op %d: %v", i, it.Err)
		}
	}
	if got := ffs.Writes(); got != 1 {
		t.Errorf("%d journal writes, want 1 group commit", got)
	}
	if st.Seq() != uint64(len(ops)) {
		t.Errorf("Seq = %d, want %d", st.Seq(), len(ops))
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, _, err := Recover(mem, pair, syms2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, len(ops)); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
}
