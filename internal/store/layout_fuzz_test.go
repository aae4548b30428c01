package store_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// FuzzOneLayout pins the one op layout the wire and the journal share.
// For every op payload DecodeOp accepts, netserve.AppendOpFrame must
// write exactly that payload after its length prefix, and the payload
// with a uvarint seq in front, framed with openFrame/sealFrame, must be
// exactly the journal record EncodeOp writes for the same op.
func FuzzOneLayout(f *testing.F) {
	for _, op := range []netserve.WireOp{
		{Kind: netserve.KindInsert, Tuple: []string{"ann", "dept1"}},
		{Kind: netserve.KindDelete, Tuple: []string{"nobody", "dept0"}},
		{Kind: netserve.KindReplace, Tuple: []string{"ann", "dept1"}, With: []string{"ann", "部署"}},
		{Kind: netserve.KindInsert},
	} {
		frame, err := netserve.AppendOpFrame(nil, op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint64(len(frame)), frame[4:])
	}

	kinds := map[core.UpdateKind]string{
		core.UpdateInsert:  netserve.KindInsert,
		core.UpdateDelete:  netserve.KindDelete,
		core.UpdateReplace: netserve.KindReplace,
	}
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte) {
		syms := value.NewSymbols()
		// 4096 is the wire's bound on one name (netserve's maxFieldBytes).
		op, err := store.DecodeOp(payload, -1, 4096, syms, nil)
		if err != nil {
			return
		}
		names := func(tu relation.Tuple) []string {
			var out []string
			for _, v := range tu {
				out = append(out, syms.Name(v))
			}
			return out
		}
		frame, err := netserve.AppendOpFrame(nil, netserve.WireOp{Kind: kinds[op.Kind], Tuple: names(op.Tuple), With: names(op.With)})
		if err != nil {
			t.Fatalf("decoded op %v does not encode as a frame: %v", op, err)
		}
		if !bytes.Equal(frame[4:], payload) {
			t.Fatalf("frame payload %x, decoded from %x", frame[4:], payload)
		}
		rec := store.SealFrame(append(binary.AppendUvarint(store.OpenFrame(nil), seq), frame[4:]...), 0)
		want, err := store.EncodeOp(seq, op, syms)
		if err != nil || !bytes.Equal(rec, want) {
			t.Fatalf("seq %d + frame payload framed is %x; EncodeOp writes %x (%v)", seq, rec, want, err)
		}
	})
}
