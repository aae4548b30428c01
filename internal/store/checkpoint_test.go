package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"slices"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/value"
)

// isSlot matches the two snapshot slots (not Create's .tmp file).
func isSlot(name string) bool { return name == SnapshotFile || name == SnapshotFile+".1" }

// mustBytes returns name's visible content on m, failing if it is
// missing.
func mustBytes(t *testing.T, m *MemFS, name string) []byte {
	t.Helper()
	b, ok := m.Bytes(name)
	if !ok {
		t.Fatalf("%s does not exist", name)
	}
	return b
}

// applyRange applies ops[from:to] one at a time, failing on any error.
func applyRange(t *testing.T, st *Session, ops []core.UpdateOp, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := st.Apply(ops[i]); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
}

// recoverWant recovers from fsys and checks that exactly the first n
// ops of ops50 survived.
func recoverWant(t *testing.T, fsys FS, pair *core.Pair, n int) (*Session, *RecoveryReport, *value.Symbols) {
	t.Helper()
	syms := value.NewSymbols()
	st, rep, err := Recover(fsys, pair, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := rep.SnapshotSeq + uint64(rep.Replayed); got != uint64(n) {
		t.Fatalf("recovered seq %d (report %+v), want %d", got, rep, n)
	}
	if got, want := render(st.Database(), syms), referenceAfter(t, n); got != want {
		t.Fatalf("recovered database:\n%s\nwant:\n%s", got, want)
	}
	return st, rep, syms
}

// nsCountFS counts the namespace-changing calls made through it.
type nsCountFS struct {
	FS
	calls int
}

func (c *nsCountFS) Create(name string) (File, error) {
	c.calls++
	return c.FS.Create(name)
}

func (c *nsCountFS) OpenAppend(name string) (File, error) {
	c.calls++
	return c.FS.OpenAppend(name)
}

func (c *nsCountFS) Rename(oldname, newname string) error {
	c.calls++
	return c.FS.Rename(oldname, newname)
}

func (c *nsCountFS) Remove(name string) error {
	c.calls++
	return c.FS.Remove(name)
}

// TestCheckpointInPlace pins the steady-state cost of a checkpoint:
// once the session has opened both slots (the first two checkpoints),
// each checkpoint is one slot Write and one slot Sync, with no
// directory fsync and no create, open, rename or remove.
func TestCheckpointInPlace(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{Match: isSlot})
	cfs := &nsCountFS{FS: ffs}
	pair, db, syms := edmFixture()
	st, err := Create(cfs, pair, db, syms, Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	applyRange(t, st, ops, 0, 2)
	// Create's two directory fsyncs, plus one per slot on first use.
	if got := ffs.SyncDirs(); got != 4 {
		t.Fatalf("%d SyncDirs after two checkpoints, want 4", got)
	}
	for i := 2; i < 10; i++ {
		w, sy, sd, ns := ffs.Writes(), ffs.Syncs(), ffs.SyncDirs(), cfs.calls
		applyRange(t, st, ops, i, i+1)
		if err := st.SnapshotErr(); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		if got := [4]int{ffs.Writes() - w, ffs.Syncs() - sy, ffs.SyncDirs() - sd, cfs.calls - ns}; got != [4]int{1, 1, 0, 0} {
			t.Fatalf("checkpoint %d: slot writes, slot syncs, SyncDirs, namespace calls = %v, want [1 1 0 0]", i+1, got)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rep, _ := recoverWant(t, mem, pair, 10); rep.SnapshotSeq != 10 {
		t.Fatalf("recovered from snapshot seq %d, want 10", rep.SnapshotSeq)
	}
}

// TestCheckpointDirFSSlots checkpoints a real directory several times,
// across a recovery, and finds exactly the journal and the two slots.
func TestCheckpointDirFSSlots(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	want := []string{JournalFile, SnapshotFile, SnapshotFile + ".1"}
	pair, db, syms := edmFixture()
	st, err := Create(fsys, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, st, ops50(syms), 0, 18)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, rep, syms2 := recoverWant(t, fsys, pair, 18)
	if rep.SnapshotSeq != 16 {
		t.Fatalf("recovered from snapshot seq %d, want 16", rep.SnapshotSeq)
	}
	if got := listing(); !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	applyRange(t, rec, ops50(syms2), 18, 30)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recoverWant(t, fsys, pair, 30)
	if got := listing(); !slices.Equal(got, want) {
		t.Fatalf("directory holds %v after a second session, want %v", got, want)
	}
}

// TestTornSlotOverwrite tears the first in-place overwrite of a slot
// (the third checkpoint) at several lengths and cuts the power. The
// slot holds a prefix of the new image over the old one's remaining
// bytes; recovery must fall back to the other slot, which the journal
// continues, and lose no acknowledged op.
func TestTornSlotOverwrite(t *testing.T) {
	for _, keep := range []int{0, 1, 9, 16, 40, 1 << 20} {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, FaultPlan{Match: isSlot, TearWriteAt: 3, TearKeep: keep})
		pair, db, syms := edmFixture()
		st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		ops := ops50(syms)
		applyRange(t, st, ops, 0, 8)
		old := mustBytes(t, mem, SnapshotFile+".1")
		applyRange(t, st, ops, 8, 12)
		if !ffs.Tripped() || st.SnapshotErr() == nil || st.Broken() != nil {
			t.Fatalf("keep=%d: tripped=%v SnapshotErr=%v Broken=%v, want a degraded, healthy session",
				keep, ffs.Tripped(), st.SnapshotErr(), st.Broken())
		}
		img, err := EncodeSnapshot(12, st.Database(), syms)
		if err != nil {
			t.Fatal(err)
		}
		k := min(keep, len(img))
		want := append(append([]byte(nil), img[:k]...), old[min(k, len(old)):]...)
		if got := mustBytes(t, mem, SnapshotFile+".1"); !bytes.Equal(got, want) {
			t.Fatalf("keep=%d: torn slot is not the new image's prefix over the old image", keep)
		}
		mem.Crash()
		rec, _, syms2 := recoverWant(t, mem, pair, 12)
		// The recovered session overwrites the damaged slot in turn.
		applyRange(t, rec, ops50(syms2), 12, 20)
		mem.Crash()
		recoverWant(t, mem, pair, 20)
	}
}

// TestSlotSyncFailure fails the fsync of the third checkpoint's slot
// write. The floor and the journal stay as they were: a crash then
// loses nothing, and without one the next batch retries the same slot.
func TestSlotSyncFailure(t *testing.T) {
	setup := func(t *testing.T) (*MemFS, *FaultFS, *Session, *core.Pair) {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, FaultPlan{Match: isSlot, FailSyncAt: 3})
		pair, db, syms := edmFixture()
		st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		applyRange(t, st, ops50(syms), 0, 12)
		if !errors.Is(st.SnapshotErr(), ErrInjected) || st.Broken() != nil || st.floor != 0 {
			t.Fatalf("SnapshotErr=%v Broken=%v floor=%d, want a degraded, healthy session on floor 0",
				st.SnapshotErr(), st.Broken(), st.floor)
		}
		return mem, ffs, st, pair
	}
	t.Run("crash", func(t *testing.T) {
		mem, _, _, pair := setup(t)
		mem.Crash()
		if _, rep, _ := recoverWant(t, mem, pair, 12); rep.SnapshotSeq != 8 {
			t.Fatalf("recovered from snapshot seq %d, want 8", rep.SnapshotSeq)
		}
	})
	t.Run("retry", func(t *testing.T) {
		mem, ffs, st, pair := setup(t)
		applyRange(t, st, ops50(st.syms), 12, 13)
		if err := st.SnapshotErr(); err != nil || st.floor != 1 || ffs.Writes() != 4 {
			t.Fatalf("after retry: SnapshotErr=%v floor=%d slot writes=%d, want nil, 1, 4", err, st.floor, ffs.Writes())
		}
		mem.Crash()
		if _, rep, _ := recoverWant(t, mem, pair, 13); rep.SnapshotSeq != 13 {
			t.Fatalf("recovered from snapshot seq %d, want 13", rep.SnapshotSeq)
		}
	})
}

// TestCrashBetweenSlotSyncAndJournalReset fails the journal reset right
// after the first checkpoint's slot is durable — the on-disk state of a
// crash between the two. The session degrades but stays healthy, and
// recovery skips the records the slot absorbed.
func TestCrashBetweenSlotSyncAndJournalReset(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{Match: journalOnly, FailTruncateAt: 1})
	pair, db, syms := edmFixture()
	st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, st, ops50(syms), 0, 4)
	if !errors.Is(st.SnapshotErr(), ErrInjected) || st.Broken() != nil {
		t.Fatalf("SnapshotErr=%v Broken=%v, want the injected reset fault on a healthy session", st.SnapshotErr(), st.Broken())
	}
	if n := len(ScanJournal(mustBytes(t, mem, JournalFile)).Records); n != 4 {
		t.Fatalf("journal holds %d records, want the 4 the failed reset kept", n)
	}
	mem.Crash()
	rec, rep, syms2 := recoverWant(t, mem, pair, 4)
	if rep.SnapshotSeq != 4 || rep.Skipped != 4 {
		t.Fatalf("report %+v, want snapshot 4 with 4 records skipped", rep)
	}
	applyRange(t, rec, ops50(syms2), 4, 10)
	mem.Crash()
	recoverWant(t, mem, pair, 10)
}

// TestCrashAfterUnsyncedJournalReset cuts the power right after a
// checkpoint, before any later batch syncs the journal reset — at the
// first checkpoint and in steady state. The reset reverts, and recovery
// skips every record it brings back.
func TestCrashAfterUnsyncedJournalReset(t *testing.T) {
	for _, n := range []int{4, 12} {
		mem := NewMemFS()
		pair, db, syms := edmFixture()
		st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		applyRange(t, st, ops50(syms), 0, n)
		if b := mustBytes(t, mem, JournalFile); len(b) != 0 {
			t.Fatalf("n=%d: journal holds %d bytes after the checkpoint, want 0", n, len(b))
		}
		mem.Crash()
		if recs := ScanJournal(mustBytes(t, mem, JournalFile)).Records; len(recs) != 4 {
			t.Fatalf("n=%d: journal holds %d records after the crash, want the 4 the unsynced reset dropped", n, len(recs))
		}
		if _, rep, _ := recoverWant(t, mem, pair, n); rep.SnapshotSeq != uint64(n) || rep.Skipped != 4 || rep.Replayed != 0 {
			t.Fatalf("n=%d: report %+v, want snapshot %d, 4 skipped, none replayed", n, rep, n)
		}
	}
}

// TestDamagedNewestSlotIsDataLoss damages the newest slot of a store
// whose journal was reset after it: the other slot is valid but older,
// and recovering from it would silently drop the four ops the damaged
// one absorbed. Recover must refuse and leave the store untouched
// unless forced.
func TestDamagedNewestSlotIsDataLoss(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, st, ops50(syms), 0, 8)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Corrupt(SnapshotFile, len(mustBytes(t, mem, SnapshotFile))/2); err != nil {
		t.Fatal(err)
	}
	before := [2][]byte{mustBytes(t, mem, SnapshotFile), mustBytes(t, mem, SnapshotFile+".1")}
	if _, _, err := Recover(mem, pair, value.NewSymbols(), Options{}); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("recover: %v, want ErrDataLoss", err)
	}
	after := [2][]byte{mustBytes(t, mem, SnapshotFile), mustBytes(t, mem, SnapshotFile+".1")}
	if !bytes.Equal(before[0], after[0]) || !bytes.Equal(before[1], after[1]) {
		t.Fatal("refused recovery changed a slot")
	}
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{ForceRecover: true})
	if err != nil {
		t.Fatalf("forced recover: %v", err)
	}
	if rep.SnapshotSeq != 4 || rep.Replayed != 0 {
		t.Fatalf("forced recovery report %+v, want the older slot at seq 4", rep)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 4); got != want {
		t.Fatalf("forced recovery database:\n%s\nwant:\n%s", got, want)
	}
}

// TestCreateOverTwoSlots runs Create over a store whose second slot
// outranks the fresh snapshot's seq 0: Create must remove it durably,
// so the fresh database is what recovers.
func TestCreateOverTwoSlots(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, st, ops50(syms), 0, 12)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Bytes(SnapshotFile + ".1"); !ok {
		t.Fatal("the old store has no second slot; the test exercises nothing")
	}
	pair2, db2, syms2 := edmFixture()
	st2, err := Create(mem, pair2, db2, syms2, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	if _, ok := mem.Bytes(SnapshotFile + ".1"); ok {
		t.Fatal("Create left the old store's second slot behind")
	}
	if _, rep, _ := recoverWant(t, mem, pair, 0); rep.SnapshotSeq != 0 {
		t.Fatalf("recovered from snapshot seq %d, want the fresh snapshot 0", rep.SnapshotSeq)
	}
}

// TestMemFSInPlaceWrites pins the MemFS model for writes through a
// rewound handle and for a handle's Truncate: both are visible at once
// and revert on Crash until a Sync makes them durable.
func TestMemFSInPlaceWrites(t *testing.T) {
	m := NewMemFS()
	memWrite(t, m, "a", "hello world")
	if err := m.SyncDir(); err != nil {
		t.Fatal(err)
	}
	step := func(f File, do func(File) error, want string) {
		t.Helper()
		if err := do(f); err != nil {
			t.Fatal(err)
		}
		if got := mustBytes(t, m, "a"); string(got) != want {
			t.Fatalf("content %q, want %q", got, want)
		}
	}
	seek := func(off int64) func(File) error {
		return func(f File) error { _, err := f.Seek(off, io.SeekStart); return err }
	}
	write := func(s string) func(File) error {
		return func(f File) error { _, err := f.Write([]byte(s)); return err }
	}
	truncate := func(n int64) func(File) error { return func(f File) error { return f.Truncate(n) } }

	// An in-place overwrite and a cut, unsynced: Crash restores both.
	w := &memWriteFile{fs: m, name: "a"}
	step(w, write("HELLO"), "HELLO world")
	step(w, truncate(7), "HELLO w")
	step(w, seek(9), "HELLO w")
	step(w, write("!"), "HELLO w\x00\x00!")
	m.Crash()
	if got := mustBytes(t, m, "a"); string(got) != "hello world" {
		t.Fatalf("after crash %q, want the synced %q", got, "hello world")
	}
	// Synced, the same changes survive; an append handle ignores Seek.
	w = &memWriteFile{fs: m, name: "a"}
	step(w, write("HELLO"), "HELLO world")
	step(w, truncate(5), "HELLO")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	a, err := m.OpenAppend("a")
	if err != nil {
		t.Fatal(err)
	}
	step(a, seek(0), "HELLO")
	step(a, write("!"), "HELLO!")
	step(a, truncate(0), "")
	m.Crash()
	if got := mustBytes(t, m, "a"); string(got) != "HELLO" {
		t.Fatalf("after crash %q, want the synced %q", got, "HELLO")
	}
	if _, err := w.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("seek to a negative offset succeeded")
	}
	r, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if off, err := r.Seek(-2, io.SeekEnd); err != nil || off != 3 {
		t.Fatalf("read handle seek: %d, %v", off, err)
	}
	if got, _ := io.ReadAll(r); string(got) != "LO" {
		t.Fatalf("read after seek %q, want %q", got, "LO")
	}
	if r.Truncate(0) == nil {
		t.Fatal("truncate through a read handle succeeded")
	}
}
