package store

import (
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// FuzzSnapshot throws arbitrary bytes at the snapshot decoder, both as
// a raw image and as a body behind each valid magic and a valid frame
// (so the body parser is reached past the checksum). A snapshot is
// accepted whole or not at all, so there is no good prefix to bound:
// the decoder must never panic, and every image it accepts must
// re-encode to one that decodes to the same sequence number and
// database.
func FuzzSnapshot(f *testing.F) {
	u := attr.MustUniverse("E", "D")
	syms := value.NewSymbols()
	db := relation.New(u.All())
	db.Insert(relation.Tuple{syms.Const("ann"), syms.Const("toys")})
	db.Insert(relation.Tuple{syms.Const("bob"), syms.Const("shoes")})
	img, err := EncodeSnapshot(7, db, syms)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-3])                       // truncated
	f.Add(img[len(snapMagic)+FrameHeaderLen:])    // a bare body
	f.Add(append(append([]byte(nil), img...), 0)) // trailing byte
	empty, err := EncodeSnapshot(0, relation.New(u.All()), syms)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	db.Insert(relation.Tuple{syms.Const("cat"), syms.Const("toys")})
	backRef, err := EncodeSnapshot(8, db, syms)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(backRef)
	// seq 8, universe E D, one row: "ann", then reference 2 while the
	// name table holds one entry.
	f.Add(snapImage(snapMagic, 8, 2, 1, 'E', 1, 'D', 1, 0, 3, 'a', 'n', 'n', 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, snapImage(snapMagic, data...), snapImage(snapMagicV1, data...)} {
			syms := value.NewSymbols()
			seq, db, err := DecodeSnapshot(img, u, syms)
			if err != nil {
				continue
			}
			enc, err := EncodeSnapshot(seq, db, syms)
			if err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			seq2, db2, err := DecodeSnapshot(enc, u, syms)
			if err != nil || seq2 != seq || !db2.Equal(db) {
				t.Fatalf("round trip changed snapshot: seq %d -> %d, err %v", seq, seq2, err)
			}
		}
	})
}

// snapImage frames payload behind magic as a snapshot image.
func snapImage(magic []byte, payload ...byte) []byte {
	img := openFrame(append([]byte(nil), magic...))
	return sealFrame(append(img, payload...), len(magic))
}
