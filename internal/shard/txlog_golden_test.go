package shard

import (
	"encoding/hex"
	"testing"
)

// TestTxLogGoldenFormat pins the on-disk bytes of the three txlog
// record kinds. Recovery reads txlogs written before a crash, possibly
// by an older binary, so any change here is a format break.
func TestTxLogGoldenFormat(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"intent", encodeIntent(TxRecord{Xid: 7, Kind: txIntent, Coord: 1, Part: 3,
			Old: []string{"emp1", "dept0"}, New: []string{"emp9", "dept0"}}),
			"1c000000bd2ea436070001030204656d70310564657074300204656d7039056465707430"},
		{"commit", encodeMark(7, txCommit),
			"02000000943d67790701"},
		{"done", encodeMark(300, txDone),
			"03000000ebf5f66aac0202"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
