package store

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
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
		rec, n, err := DecodeRecord(img[off:])
		if err != nil || rec.Seq != seq {
			tb.Fatalf("journal record at %d: seq %d, %v; want seq %d", off, rec.Seq, err, seq)
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
		return EncodeRecord(seq, core.UpdateInsert, []string{emp, "dept0"}, nil)
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
			if r, _, err := DecodeRecord(tail[i:]); err == nil && r.Seq >= floor+k+1 {
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
		scan := ScanJournal(img)
		if scan.Torn || scan.Corrupt || int(scan.GoodBytes) != len(img) || len(scan.Records) != rep.Skipped+rep.Replayed {
			t.Fatalf("kept journal: %d records, torn=%v corrupt=%v, good %d of %d bytes; report %+v",
				len(scan.Records), scan.Torn, scan.Corrupt, scan.GoodBytes, len(img), rep)
		}
		for i, r := range scan.Records[rep.Skipped:] {
			if want := uint64(floor + 1 + i); r.Seq != want {
				t.Fatalf("replayed record %d has seq %d, want %d", i, r.Seq, want)
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
			if first, _, err := DecodeRecord(img); err != nil || first.Seq != uint64(seq) {
				t.Fatalf("after seq %d the journal starts with seq %d (%v), want the new cycle's first record", seq, first.Seq, err)
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recoverWant(t, fsys, pair, 32)
}
