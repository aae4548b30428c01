package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// recycledStore is the store FuzzRecoverTail starts from: checkpointed
// at seq 4, with the three records 5..7 written from offset 0 of the
// rewound journal. It returns both slot images and those three records'
// bytes, without whatever of the first cycle lies past them.
func recycledStore(tb testing.TB) (slots [2][]byte, live []byte) {
	tb.Helper()
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		tb.Fatal(err)
	}
	for i, op := range ops50(syms)[:7] {
		if _, err := st.Apply(op); err != nil {
			tb.Fatalf("op %d: %v", i+1, err)
		}
	}
	for i, name := range slotFiles {
		slots[i], _ = mem.Bytes(name)
	}
	img, _ := mem.Bytes(JournalFile)
	off := 0
	for seq := uint64(5); seq <= 7; seq++ {
		got, n, err := firstRecord(img[off:])
		if err != nil || got != seq {
			tb.Fatalf("journal record at %d: seq %d, %v; want seq %d", off, got, err, seq)
		}
		off += n
	}
	return slots, img[:off]
}

// FuzzRecoverTail recovers a store whose journal is three live records
// (seqs 5..7 over the floor at 4) followed by arbitrary bytes: what a
// rewound journal holds past its live records after a crash. Recover
// must replay only contiguous seqs from the floor; it may refuse with
// ErrDataLoss only when some offset of the tail decodes to an intact
// record at or above the next seq, 8; and when none does it must
// replay exactly the three live records and cut the tail.
func FuzzRecoverTail(f *testing.F) {
	slots, live := recycledStore(f)
	rec := func(seq uint64, emp string) []byte {
		return encodeRecord(seq, core.UpdateInsert, []string{emp, "dept0"}, nil)
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add([]byte(nil))
	f.Add(cat(rec(3, "s3"), rec(4, "s4")))                   // the earlier cycle's tail
	f.Add(cat(rec(2, "s2")[5:], rec(3, "s3"), rec(4, "s4"))) // a misaligned fragment first
	f.Add(rec(9, "gap"))                                     // a gap: an acknowledged op past lost ones
	f.Add(cat(rec(4, "s4")[:11], rec(9, "gap")))             // a gap behind damage
	f.Add(rec(8, "next"))                                    // the live log continues

	pair, _, _ := edmFixture()
	f.Fuzz(func(t *testing.T, tail []byte) {
		const floor, k = 4, 3
		mem := NewMemFS()
		for i, name := range slotFiles {
			memWrite(t, mem, name, string(slots[i]))
		}
		memWrite(t, mem, JournalFile, string(live)+string(tail))
		if err := mem.SyncDir(); err != nil {
			t.Fatal(err)
		}
		continues := false
		for i := range tail {
			if seq, _, err := firstRecord(tail[i:]); err == nil && seq >= floor+k+1 {
				continues = true
				break
			}
		}
		syms := value.NewSymbols()
		st, rep, err := Recover(mem, pair, syms, Options{})
		if err != nil {
			if !continues {
				t.Fatalf("recover: %v, with no record at or above seq %d in the tail", err, floor+k+1)
			}
			return
		}
		if rep.SnapshotSeq != floor || rep.Replayed < k || (!continues && rep.Replayed != k) {
			t.Fatalf("report %+v, want snapshot %d and %d records replayed (more only if the tail continues them)", rep, floor, k)
		}
		// The journal Recover kept is the live prefix: the records it
		// skipped, then floor+1, floor+2, ... — one per replayed record.
		img, _ := mem.Bytes(JournalFile)
		seqs, good, serr := journalSeqs(img)
		if serr != nil || int(good) != len(img) || len(seqs) != rep.Skipped+rep.Replayed {
			t.Fatalf("kept journal: %d records, stopped by %v, good %d of %d bytes; report %+v",
				len(seqs), serr, good, len(img), rep)
		}
		for i, seq := range seqs[rep.Skipped:] {
			if want := uint64(floor + 1 + i); seq != want {
				t.Fatalf("replayed record %d has seq %d, want %d", i, seq, want)
			}
		}
		if st.Seq() != floor+uint64(rep.Replayed) {
			t.Fatalf("session seq %d, want %d", st.Seq(), floor+rep.Replayed)
		}
		if rep.Replayed == k {
			if got, want := render(st.Database(), syms), referenceAfter(t, floor+k); got != want {
				t.Fatalf("recovered database:\n%s\nwant:\n%s", got, want)
			}
		}
	})
}

// TestRecoveredSessionRecycles checks that a session Recover returns
// rewinds its journal at each checkpoint like a created one: across six
// checkpoints on a real directory, each cycle's first record lands at
// offset 0, and the file never outgrows the longest cycle.
func TestRecoveredSessionRecycles(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	pair, db, syms := edmFixture()
	st, err := Create(fsys, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, st, ops50(syms), 0, 6)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, syms2 := recoverWant(t, fsys, pair, 6)
	// Each cycle is records 4c+1..4c+4; the longest one bounds the file.
	ops := ops50(syms2)
	bound := 0
	for c := 1; c < 8; c++ {
		size := 0
		for seq := 4*c + 1; seq <= 4*c+4; seq++ {
			b, err := EncodeOp(uint64(seq), ops[seq-1], syms2)
			if err != nil {
				t.Fatal(err)
			}
			size += len(b)
		}
		bound = max(bound, size)
	}
	path := filepath.Join(dir, JournalFile)
	for seq := 7; seq <= 32; seq++ {
		applyRange(t, rec, ops, seq-1, seq)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(img) > bound {
			t.Fatalf("after seq %d the journal is %d bytes, over the longest cycle's %d", seq, len(img), bound)
		}
		if seq%4 == 1 {
			if first, _, err := firstRecord(img); err != nil || first != uint64(seq) {
				t.Fatalf("after seq %d the journal starts with seq %d (%v), want the new cycle's first record", seq, first, err)
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recoverWant(t, fsys, pair, 32)
}

// TestStaleTailInternsNothing recovers a recycled journal whose stale
// tail holds intact records of names found nowhere else: the first
// cycle inserts and deletes two employees, the checkpoint at seq 4
// absorbs them, and the one shorter record of the next cycle leaves
// records 2..4 behind it. Recover checks the tail and cuts it, but
// interns only what it replays.
func TestStaleTailInternsNothing(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	tuple := func(e, d string) relation.Tuple { return relation.Tuple{syms.Const(e), syms.Const(d)} }
	ops := []core.UpdateOp{
		core.Insert(tuple("ghost-first", "dept0")),
		core.Delete(tuple("ghost-first", "dept0")),
		core.Insert(tuple("ghost-second", "dept1")),
		core.Delete(tuple("ghost-second", "dept1")),
		core.Insert(tuple("e5", "dept0")),
	}
	applyRange(t, st, ops, 0, len(ops))
	img := mustBytes(t, mem, JournalFile)
	for _, ghost := range []string{"ghost-first", "ghost-second"} {
		if !bytes.Contains(img, []byte(ghost)) {
			t.Fatalf("the recycled journal no longer holds %q; the test needs it in the stale tail", ghost)
		}
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	_, rep, err := Recover(mem, pair, syms2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq != 4 || rep.Replayed != 1 || rep.TruncatedBytes == 0 {
		t.Fatalf("report %+v, want snapshot 4, record 5 replayed and the stale tail cut", rep)
	}
	if _, ok := syms2.Lookup("e5"); !ok {
		t.Error("the replayed record's name was not interned")
	}
	for _, ghost := range []string{"ghost-first", "ghost-second"} {
		if _, ok := syms2.Lookup(ghost); ok {
			t.Errorf("%q, named only in the stale tail, was interned", ghost)
		}
	}
}
