package store

import (
	"reflect"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
)

// FuzzJournal throws arbitrary bytes at the journal record decoder: it
// must never panic, never claim more good bytes than exist, and every
// record it does accept must survive an encode/decode round trip.
func FuzzJournal(f *testing.F) {
	r1 := EncodeRecord(1, core.UpdateInsert, []string{"emp", "dept"}, nil)
	r2 := EncodeRecord(2, core.UpdateDelete, []string{"emp", "dept"}, nil)
	r3 := EncodeRecord(3, core.UpdateReplace, []string{"e", "d0"}, []string{"e", "d1"})
	f.Add(r1)
	f.Add(append(append(append([]byte(nil), r1...), r2...), r3...))
	f.Add(append(append([]byte(nil), r1...), r2[:7]...)) // torn tail
	flip := append(append([]byte(nil), r1...), r2...)
	flip[len(r1)+FrameHeaderLen] ^= 0xff // corrupt second payload
	f.Add(flip)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // absurd declared length
	f.Add(EncodeRecord(0, core.UpdateInsert, nil, nil))

	// Batch-encoded images: group commit concatenates ordinary record
	// frames into one write, exactly as ApplyOpsCtx does. Seed a whole
	// batch, a batch truncated at a record boundary, and a batch torn
	// mid-record so the fuzzer explores the shapes a crashed group
	// commit leaves behind.
	var batch []byte
	var bounds []int // prefix length after each whole record
	for seq := uint64(1); seq <= 8; seq++ {
		kind := core.UpdateInsert
		if seq%3 == 0 {
			kind = core.UpdateDelete
		}
		rec := EncodeRecord(seq, kind, []string{"w", "dept"}, nil)
		batch = append(batch, rec...)
		bounds = append(bounds, len(batch))
	}
	f.Add(append([]byte(nil), batch...))
	f.Add(append([]byte(nil), batch[:bounds[4]]...))   // torn at a boundary
	f.Add(append([]byte(nil), batch[:bounds[4]+5]...)) // torn inside a record
	mid := append([]byte(nil), batch...)
	mid[bounds[2]+FrameHeaderLen] ^= 0x01 // corrupt a mid-batch payload
	f.Add(mid)

	f.Fuzz(func(t *testing.T, data []byte) {
		scan := ScanJournal(data)
		if scan.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d beyond %d input bytes", scan.GoodBytes, len(data))
		}
		if scan.Torn && scan.Corrupt {
			t.Fatal("tail flagged both torn and corrupt")
		}
		if int(scan.GoodBytes) < len(data) && !scan.Torn && !scan.Corrupt {
			t.Fatal("scan stopped early without a reason")
		}
		for _, rec := range scan.Records {
			enc := EncodeRecord(rec.Seq, rec.Kind, rec.Tuple, rec.With)
			back, n, err := DecodeRecord(enc)
			if err != nil || n != len(enc) {
				t.Fatalf("re-encoded record failed to decode: n=%d err=%v", n, err)
			}
			if !reflect.DeepEqual(back, rec) {
				t.Fatalf("round trip changed record: %+v -> %+v", rec, back)
			}
		}
	})
}
