package bench

import (
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/workload"
)

// TestFSProbeCountsExact drives a store.Create and three Applies through
// the probe on a MemFS and checks every count against an independent
// oracle: the store's own encoders for the bytes, the files the MemFS
// holds afterwards, and the fsync sequence the store documents (Create
// writes, syncs and renames the snapshot, syncs the directory, creates
// the journal and syncs the directory again; each Apply appends one
// record with one write and one sync).
func TestFSProbeCountsExact(t *testing.T) {
	edm := workload.NewEDM()
	pair := core.MustPair(edm.Schema, edm.ED, edm.DM)
	db := edm.Instance(8, 2)
	mem := store.NewMemFS()
	p := &FSProbe{}
	st, err := store.Create(p.Wrap(mem), pair, db, edm.Syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.EncodeSnapshot(0, db, edm.Syms)
	if err != nil {
		t.Fatal(err)
	}
	ops := []core.UpdateOp{
		core.Insert(edm.NewEmployeeTuple("new0", 0)),
		core.Insert(edm.NewEmployeeTuple("new1", 1)),
		core.Replace(edm.NewEmployeeTuple("new0", 0), edm.NewEmployeeTuple("new0", 1)),
	}
	var journal int
	for i, op := range ops {
		if _, err := st.Apply(op); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		rec, err := store.EncodeOp(uint64(i+1), op, edm.Syms)
		if err != nil {
			t.Fatal(err)
		}
		journal += len(rec)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got := p.Counts()
	want := ProbeCounts{
		Journal: int64(journal), Snapshot: int64(len(snap)),
		Syncs: 1 + int64(len(ops)), SyncDirs: 2, Snap: 1,
	}
	if got != want {
		t.Fatalf("probe counts %+v, want %+v", got, want)
	}
	if b, _ := mem.Bytes(store.JournalFile); len(b) != journal {
		t.Fatalf("journal file holds %d bytes, probe counted %d", len(b), got.Journal)
	}
	if b, _ := mem.Bytes(store.SnapshotFile); len(b) != len(snap) {
		t.Fatalf("snapshot file holds %d bytes, probe counted %d", len(b), got.Snapshot)
	}
}

// TestFSProbeSpansOnlyWhenTraced checks that the probe records spans only
// while a buffer is installed.
func TestFSProbeSpansOnlyWhenTraced(t *testing.T) {
	p := &FSProbe{}
	fsys := p.Wrap(store.NewMemFS())
	write := func() {
		f, err := fsys.Create(store.JournalFile)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	write()
	sp := NewSpans(16)
	p.Trace(sp)
	write()
	p.Trace(nil)
	write()
	spans := sp.All()
	if len(spans) != 2 || spans[0].Name != SpanFSWrite || spans[1].Name != SpanFSSync {
		t.Fatalf("spans %+v, want one write and one sync", spans)
	}
	if n := p.JournalBytes.Load(); n != 9 {
		t.Fatalf("journal bytes %d, want 9", n)
	}
}
