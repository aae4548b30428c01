package store

import (
	"encoding/hex"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// TestGoldenFormat pins the on-disk bytes of journal records and of a
// snapshot image. Recovery reads files written by older binaries, so
// any change to these literals is a format break, not a refactor.
func TestGoldenFormat(t *testing.T) {
	u := attr.MustUniverse("E", "D")
	syms := value.NewSymbols()
	db := relation.New(u.All())
	db.Insert(relation.Tuple{syms.Const("ann"), syms.Const("toys")})
	db.Insert(relation.Tuple{syms.Const("bob"), syms.Const("shoes")})
	snap, err := EncodeSnapshot(7, db, syms)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"journal insert", EncodeRecord(1, core.UpdateInsert, []string{"ann", "toys"}, nil),
			"0c000000a9644d0701000203616e6e04746f7973"},
		{"journal delete", EncodeRecord(2, core.UpdateDelete, []string{"bob", "shoes"}, nil),
			"0d0000000cf44d9802010203626f620573686f6573"},
		{"journal replace", EncodeRecord(300, core.UpdateReplace, []string{"ann", "toys"}, []string{"ann", "shoes"}),
			"180000000564b348ac02020203616e6e04746f79730203616e6e0573686f6573"},
		{"snapshot", snap,
			"4343534e4150310a1a0000002ead9e910702014501440203616e6e04746f797303626f620573686f6573"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
