package store

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// namesOf renders a tuple the way the name-slice encoders did: one
// Symbols.Name per cell.
func namesOf(t relation.Tuple, syms *value.Symbols) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = syms.Name(v)
	}
	return out
}

// TestCellEncoderMatchesEncodeRecord pins the cell encoder to the
// record format: random inserts, deletes and replaces over names that
// are empty, multibyte, or long enough to need a multi-byte length
// uvarint, appended onto a non-empty buffer, must leave the buffer's
// prefix alone and append exactly EncodeRecord of the per-cell names.
func TestCellEncoderMatchesEncodeRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := value.NewSymbols()
	pool := []value.Value{
		syms.Const(""),
		syms.Const("ann"),
		syms.Const("zoë"),
		syms.Const("部署"),
		syms.Const(strings.Repeat("x", 128)),
		syms.Const(strings.Repeat("é", 300)),
	}
	tuple := func() relation.Tuple {
		t := make(relation.Tuple, 1+rng.Intn(3))
		for i := range t {
			t[i] = pool[rng.Intn(len(pool))]
		}
		return t
	}
	enc := newCellEncoder(syms)
	for i := 0; i < 500; i++ {
		op := core.UpdateOp{Kind: core.UpdateKind(rng.Intn(3)), Tuple: tuple()}
		if op.Kind == core.UpdateReplace {
			op.With = tuple()
		}
		seq := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
		prefix := make([]byte, 1+rng.Intn(16))
		rng.Read(prefix)
		got, err := enc.appendOp(append([]byte(nil), prefix...), seq, op)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		var with []string
		if op.Kind == core.UpdateReplace {
			with = namesOf(op.With, syms)
		}
		want := append(append([]byte(nil), prefix...), EncodeRecord(seq, op.Kind, namesOf(op.Tuple, syms), with)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d (%v, seq %d):\n got %x\nwant %x", i, op.Kind, seq, got, want)
		}
	}
}

// TestCellEncoderRefusesLabeledNulls: a null has no name on disk, for
// a record and for a snapshot alike, and a failed record append hands
// the buffer back at its original length.
func TestCellEncoderRefusesLabeledNulls(t *testing.T) {
	syms := value.NewSymbols()
	enc := newCellEncoder(syms)
	prefix := []byte("kept")
	op := core.Replace(relation.Tuple{syms.Const("a")}, relation.Tuple{value.Null(0)})
	got, err := enc.appendOp(prefix, 1, op)
	if err == nil || !strings.Contains(err.Error(), "labeled null") {
		t.Fatalf("null in With encoded (err %v)", err)
	}
	if string(got) != "kept" {
		t.Errorf("failed append left %q, want the prefix back", got)
	}
	if _, err := enc.appendOp(nil, 1, core.UpdateOp{Kind: 9, Tuple: relation.Tuple{syms.Const("a")}}); err == nil {
		t.Error("unknown update kind encoded")
	}
	u := attr.MustUniverse("E")
	db := relation.New(u.All())
	db.Insert(relation.Tuple{value.Null(3)})
	if _, err := EncodeSnapshot(1, db, syms); err == nil {
		t.Error("snapshot holding a labeled null encoded")
	}
}

// TestSnapshotLateConstantRoundTrips exercises the encoder's fallback:
// a constant interned after the encoder took its snapshot of the
// symbol table must still be written by name and read back.
func TestSnapshotLateConstantRoundTrips(t *testing.T) {
	u := attr.MustUniverse("E", "D")
	syms := value.NewSymbols()
	db := relation.New(u.All())
	db.Insert(relation.Tuple{syms.Const("ann"), syms.Const("toys")})
	enc := newCellEncoder(syms)
	late := syms.Const("zoë-late")
	if int(late) < len(enc.names) {
		t.Fatal("late constant falls inside the encoder's table snapshot")
	}
	db.Insert(relation.Tuple{late, syms.Const("toys")})
	img, err := enc.appendSnapshot(nil, 7, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSnapshot(7, db, syms)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Errorf("fallback image differs from a fresh encoder's:\n got %x\nwant %x", img, want)
	}
	syms2 := value.NewSymbols()
	seq, got, err := DecodeSnapshot(img, u, syms2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || render(got, syms2) != render(db, syms) {
		t.Errorf("round trip: seq %d\n%s\nwant seq 7\n%s", seq, render(got, syms2), render(db, syms))
	}
}

// TestGroupCommitBufferReuse: two consecutive group commits through the
// session's reused buffer, the second shorter than the first, must
// journal exactly the acknowledged records — nothing left over from
// the first batch's bytes.
func TestGroupCommitBufferReuse(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)[:11]
	for _, batch := range [][]core.UpdateOp{ops[:8], ops[8:]} {
		items, err := st.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("op %d: %v", i, it.Err)
			}
		}
	}
	if cap(st.buf) == 0 {
		t.Error("session kept no group-commit buffer")
	}
	data, err := readAll(mem, JournalFile)
	if err != nil {
		t.Fatal(err)
	}
	scan := ScanJournal(data)
	if scan.Torn || scan.Corrupt || scan.GoodBytes != int64(len(data)) {
		t.Fatalf("journal scan: torn=%v corrupt=%v good=%d of %d", scan.Torn, scan.Corrupt, scan.GoodBytes, len(data))
	}
	if len(scan.Records) != len(ops) {
		t.Fatalf("%d records journaled, want %d", len(scan.Records), len(ops))
	}
	for i, rec := range scan.Records {
		want, err := EncodeOp(uint64(i+1), ops[i], syms)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeRecord(rec.Seq, rec.Kind, rec.Tuple, rec.With); !bytes.Equal(got, want) {
			t.Errorf("record %d: %+v, want the encoding of %v", i, rec, ops[i])
		}
	}
}

// TestBatchUnencodableOpFlushesPrefix: when the k-th op of a batch is
// applied in memory but cannot be encoded, the batch journals exactly
// the k−1 records before it, marks the k-th as breaking the session,
// and the session refuses further work.
func TestBatchUnencodableOpFlushesPrefix(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	ops := append([]core.UpdateOp(nil), ops50(syms)[:k-1]...)
	ops = append(ops,
		core.Insert(relation.Tuple{value.Null(0), syms.Const("dept0")}),
		ops50(syms)[k-1])
	items, err := st.ApplyBatch(ops)
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("batch error %v, want ErrSessionBroken", err)
	}
	if len(items) != k {
		t.Fatalf("%d items, want %d (the batch stops at the unencodable op)", len(items), k)
	}
	for i, it := range items[:k-1] {
		if it.Err != nil {
			t.Fatalf("op %d: %v", i, it.Err)
		}
	}
	if !errors.Is(items[k-1].Err, ErrSessionBroken) {
		t.Errorf("op %d error %v, want ErrSessionBroken", k-1, items[k-1].Err)
	}
	if st.Seq() != k-1 {
		t.Errorf("Seq = %d, want %d", st.Seq(), k-1)
	}
	if _, err := st.ApplyBatch(ops50(syms)[k-1 : k]); !errors.Is(err, ErrSessionBroken) {
		t.Errorf("broken session accepted a batch (%v)", err)
	}
	data, err := readAll(mem, JournalFile)
	if err != nil {
		t.Fatal(err)
	}
	scan := ScanJournal(data)
	if scan.Torn || scan.Corrupt || len(scan.Records) != k-1 {
		t.Fatalf("journal holds %d records (torn=%v corrupt=%v), want the %d before the unencodable op",
			len(scan.Records), scan.Torn, scan.Corrupt, k-1)
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, _, err := Recover(mem, pair, syms2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, k-1); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
}
