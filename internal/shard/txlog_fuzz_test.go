package shard

import (
	"reflect"
	"testing"

	"github.com/constcomp/constcomp/internal/store"
)

// FuzzTxLog throws arbitrary bytes at the txlog scanner, both as a raw
// log image and wrapped in one valid frame (so the payload decoder is
// reached past the checksum). The scan must never panic, never claim
// more good bytes than exist, flag damage exactly when it stops early,
// and every record it accepts must survive an encode/decode round trip.
func FuzzTxLog(f *testing.F) {
	intent := encodeIntent(testIntent(1))
	commit := encodeMark(1, txCommit)
	img := append(append(append([]byte(nil), intent...), commit...), encodeMark(1, txDone)...)
	f.Add(img)
	f.Add(img[:len(intent)+3]) // torn tail
	flip := append([]byte(nil), img...)
	flip[store.FrameHeaderLen+1] ^= 0xff // corrupt first payload
	f.Add(flip)
	f.Add(intent[store.FrameHeaderLen:]) // a bare intent payload
	f.Add(commit[store.FrameHeaderLen:])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // absurd declared length

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, store.AppendFrame(nil, data)} {
			scan := scanTx(img)
			if scan.GoodBytes > int64(len(img)) {
				t.Fatalf("GoodBytes %d beyond %d input bytes", scan.GoodBytes, len(img))
			}
			if scan.Damaged != (int(scan.GoodBytes) < len(img)) {
				t.Fatalf("damaged=%v with %d of %d bytes good", scan.Damaged, scan.GoodBytes, len(img))
			}
			for _, rec := range scan.Records {
				enc := encodeMark(rec.Xid, rec.Kind)
				if rec.Kind == txIntent {
					enc = encodeIntent(rec)
				}
				back := scanTx(enc)
				if back.Damaged || len(back.Records) != 1 || !reflect.DeepEqual(back.Records[0], rec) {
					t.Fatalf("round trip changed record: %+v -> %+v", rec, back)
				}
			}
		}
	})
}
