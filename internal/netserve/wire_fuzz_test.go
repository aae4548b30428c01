package netserve

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// FuzzOpFrame throws arbitrary bytes at the submit path's op reader,
// which parses untrusted network input, against a two-column view: it
// must never panic, never consume more bytes than the stream holds, and
// every op it accepts must re-encode, through the interned tuple and
// AppendOpFrame, to exactly the bytes it was read from (the op framing
// has one encoding per op) and read back to the same op.
func FuzzOpFrame(f *testing.F) {
	var stream []byte
	for _, op := range []WireOp{
		{Kind: KindInsert, Tuple: []string{"emp1", "dept0"}},
		{Kind: KindDelete, Tuple: []string{"emp1", "dept0"}},
		{Kind: KindReplace, Tuple: []string{"emp1", "dept0"}, With: []string{"emp1", "dept1"}},
	} {
		frame, err := AppendOpFrame(nil, op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])            // torn mid-frame
	f.Add([]byte{0, 0, 0, 0})                // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0}) // absurd declared length
	f.Add([]byte{2, 0, 0, 0, 'x', 0})        // unknown kind

	f.Fuzz(func(t *testing.T, data []byte) {
		vs := &viewState{name: "fuzz", syms: value.NewSymbols(), width: 2}
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		prev := 0
		for {
			op, err := vs.readOp(br)
			if err != nil {
				return
			}
			n := consumed()
			if n > len(data) {
				t.Fatalf("consumed %d bytes of a %d-byte stream", n, len(data))
			}
			wop := WireOp{Kind: wireKinds[op.Kind], Tuple: vs.names(op.Tuple), With: vs.names(op.With)}
			enc, err := AppendOpFrame(nil, wop)
			if err != nil {
				t.Fatalf("accepted op %+v does not re-encode: %v", wop, err)
			}
			if !bytes.Equal(enc, data[prev:n]) {
				t.Fatalf("op %+v re-encodes to %x, was read from %x", wop, enc, data[prev:n])
			}
			back, err := vs.readOp(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil || !reflect.DeepEqual(back, op) {
				t.Fatalf("round trip changed op: %+v -> %+v (err %v)", op, back, err)
			}
			prev = n
		}
	})
}

// wireKinds names each update kind as a WireOp does.
var wireKinds = map[core.UpdateKind]string{
	core.UpdateInsert:  KindInsert,
	core.UpdateDelete:  KindDelete,
	core.UpdateReplace: KindReplace,
}

// names renders a tuple interned by the view's op reader.
func (vs *viewState) names(t relation.Tuple) []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = vs.syms.Name(v)
	}
	return out
}

// FuzzResultFrame throws arbitrary bytes at the client-side result
// frame reader: it must never panic, never consume more bytes than the
// stream holds, and every result it accepts must survive a re-encode
// and re-read. Re-encoding reproduces the bytes read except for the two
// frames with no canonical form: a shed frame carrying a message (the
// reader drops it) and a message over maxFieldBytes (the writer cuts
// it).
func FuzzResultFrame(f *testing.F) {
	var stream []byte
	for _, res := range []OpResult{
		{Applied: true, Reason: "ok"},
		{Applied: true, Identity: true, Reason: "identity"},
		{Rejected: true, Reason: "no shared match"},
		{Shed: true},
		{Error: "store degraded"},
	} {
		frame := AppendResultFrame(nil, res)
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-2])                // torn mid-frame
	f.Add([]byte{3, 0, 0, 0, 0, 9, 0})           // message length past the payload
	f.Add([]byte{3, 0, 0, 0, 7, 0, 0})           // unknown status
	f.Add([]byte{5, 0, 0, 0, 2, 2, 0, 'h', 'i'}) // shed frame carrying a message

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		prev := 0
		for {
			res, err := ReadResultFrame(br)
			if err != nil {
				return
			}
			n := consumed()
			if n > len(data) {
				t.Fatalf("consumed %d bytes of a %d-byte stream", n, len(data))
			}
			frame := data[prev:n]
			enc := AppendResultFrame(nil, res)
			if !bytes.Equal(enc, frame) && frame[4] != resultShed && len(frame)-7 <= maxFieldBytes {
				t.Fatalf("result %+v re-encodes to %x, was read from %x", res, enc, frame)
			}
			back, err := ReadResultFrame(bufio.NewReader(bytes.NewReader(enc)))
			want := res
			want.Reason, want.Error = cut(want.Reason), cut(want.Error)
			if err != nil || back != want {
				t.Fatalf("round trip changed result: %+v -> %+v (err %v)", res, back, err)
			}
			prev = n
		}
	})
}

// cut truncates a result message as AppendResultFrame does.
func cut(s string) string {
	if len(s) > maxFieldBytes {
		return s[:maxFieldBytes]
	}
	return s
}
