package store

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// snapshotV1Golden is a CCSNAP1 image, the snapshot format older
// binaries wrote: seq 7 over universe E D, rows ann/toys and bob/shoes,
// every cell an inline name.
const snapshotV1Golden = "4343534e4150310a1a0000002ead9e910702014501440203616e6e04746f797303626f620573686f6573"

// encodeSnapshotV1 writes db as a CCSNAP1 image, as older binaries did.
func encodeSnapshotV1(seq uint64, db *relation.Relation, syms *value.Symbols) []byte {
	dst := append([]byte(nil), snapMagicV1...)
	dst = binary.AppendUvarint(openFrame(dst), seq)
	dst = AppendNames(dst, db.Universe().Names())
	dst = binary.AppendUvarint(dst, uint64(db.Len()))
	for i := 0; i < db.Len(); i++ {
		for _, v := range db.Tuple(i) {
			dst = appendName(dst, syms.Name(v))
		}
	}
	return sealFrame(dst, len(snapMagicV1))
}

// TestGoldenFormat pins the on-disk bytes of journal records and of a
// CCSNAP2 snapshot image whose second row refers back to the first
// row's "toys", and decodes the CCSNAP1 image older binaries wrote.
// Recovery reads files written by older binaries, so any change to
// these literals is a format break, not a refactor.
func TestGoldenFormat(t *testing.T) {
	u := attr.MustUniverse("E", "D")
	syms := value.NewSymbols()
	db := relation.New(u.All())
	db.Insert(relation.Tuple{syms.Const("ann"), syms.Const("toys")})
	db.Insert(relation.Tuple{syms.Const("bob"), syms.Const("toys")})
	snap, err := EncodeSnapshot(7, db, syms)
	if err != nil {
		t.Fatal(err)
	}
	tuple := func(names ...string) relation.Tuple {
		t := make(relation.Tuple, len(names))
		for i, n := range names {
			t[i] = syms.Const(n)
		}
		return t
	}
	record := func(seq uint64, op core.UpdateOp) []byte {
		rec, err := EncodeOp(seq, op, syms)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"journal insert", record(1, core.Insert(tuple("ann", "toys"))),
			"0c000000a9644d0701000203616e6e04746f7973"},
		{"journal delete", record(2, core.Delete(tuple("bob", "shoes"))),
			"0d0000000cf44d9802010203626f620573686f6573"},
		{"journal replace", record(300, core.Replace(tuple("ann", "toys"), tuple("ann", "shoes"))),
			"180000000564b348ac02020203616e6e04746f79730203616e6e0573686f6573"},
		{"snapshot", snap,
			"4343534e4150320a1800000064fb7a14070201450144020003616e6e0004746f79730003626f6202"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	v1, err := hex.DecodeString(snapshotV1Golden)
	if err != nil {
		t.Fatal(err)
	}
	syms1 := value.NewSymbols()
	seq, got, err := DecodeSnapshot(v1, u, syms1)
	if err != nil {
		t.Fatalf("CCSNAP1 image: %v", err)
	}
	want := relation.New(u.All())
	want.Insert(relation.Tuple{syms1.Const("ann"), syms1.Const("toys")})
	want.Insert(relation.Tuple{syms1.Const("bob"), syms1.Const("shoes")})
	if seq != 7 || !got.Equal(want) {
		t.Errorf("CCSNAP1 image decodes to seq %d\n%s\nwant seq 7\n%s", seq, render(got, syms1), render(want, syms1))
	}
	if w := hex.EncodeToString(encodeSnapshotV1(seq, got, syms1)); w != snapshotV1Golden {
		t.Errorf("test CCSNAP1 writer:\n got %s\nwant %s", w, snapshotV1Golden)
	}
}
