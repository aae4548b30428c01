package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/value"
)

// FuzzJournal throws arbitrary bytes at the journal scan and the op
// reader behind it: they must never panic, never claim more good bytes
// than exist, and every record the scan accepts must decode through
// DecodeOp and re-encode, through the interned tuple and EncodeOp, to
// exactly the bytes it was read from.
func FuzzJournal(f *testing.F) {
	r1 := encodeRecord(1, core.UpdateInsert, []string{"emp", "dept"}, nil)
	r2 := encodeRecord(2, core.UpdateDelete, []string{"emp", "dept"}, nil)
	r3 := encodeRecord(3, core.UpdateReplace, []string{"e", "d0"}, []string{"e", "d1"})
	f.Add(r1)
	f.Add(append(append(append([]byte(nil), r1...), r2...), r3...))
	f.Add(append(append([]byte(nil), r1...), r2[:7]...)) // torn tail
	flip := append(append([]byte(nil), r1...), r2...)
	flip[len(r1)+FrameHeaderLen] ^= 0xff // corrupt second payload
	f.Add(flip)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // absurd declared length
	f.Add(encodeRecord(0, core.UpdateInsert, nil, nil))

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
		rec := encodeRecord(seq, kind, []string{"w", "dept"}, nil)
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
		syms := value.NewSymbols()
		var end int // the end of the last record the scan accepted
		good, err := ScanJournal(data, func(seq uint64, op []byte) error {
			start := end
			end += FrameHeaderLen + len(binary.AppendUvarint(nil, seq)) + len(op)
			if end > len(data) {
				t.Fatalf("record ends at %d, past %d input bytes", end, len(data))
			}
			dec, err := DecodeOp(op, -1, -1, syms, nil)
			if err != nil {
				t.Fatalf("scanned record %d does not decode: %v", seq, err)
			}
			enc, err := EncodeOp(seq, dec, syms)
			if err != nil || !bytes.Equal(enc, data[start:end]) {
				t.Fatalf("record %d re-encodes to %x (%v), was read from %x", seq, enc, err, data[start:end])
			}
			return nil
		})
		if good != int64(end) {
			t.Fatalf("GoodBytes %d, but the accepted records end at %d", good, end)
		}
		switch {
		case err == nil && int(good) != len(data):
			t.Fatalf("scan stopped at %d of %d bytes without a reason", good, len(data))
		case err != nil && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt):
			t.Fatalf("scan stopped with %v, want torn or corrupt", err)
		}
	})
}
