package netserve

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzOpFrame throws arbitrary bytes at the submit-path frame reader,
// which parses untrusted network input: it must never panic, never
// consume more bytes than the stream holds, and every op it accepts
// must re-encode to exactly the bytes it was read from (the op framing
// has one encoding per op).
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
	f.Add(stream[:len(stream)-3])              // torn mid-frame
	f.Add([]byte{0, 0, 0, 0})                  // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 'i'}) // absurd declared length
	f.Add([]byte{2, 0, 0, 0, 'x', 0})          // unknown kind

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		prev := 0
		for {
			op, err := ReadOpFrame(br)
			if err != nil {
				return
			}
			n := consumed()
			if n > len(data) {
				t.Fatalf("consumed %d bytes of a %d-byte stream", n, len(data))
			}
			enc, err := AppendOpFrame(nil, op)
			if err != nil {
				t.Fatalf("accepted op %+v does not re-encode: %v", op, err)
			}
			if !bytes.Equal(enc, data[prev:n]) {
				t.Fatalf("op %+v re-encodes to %x, was read from %x", op, enc, data[prev:n])
			}
			back, err := ReadOpFrame(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil || !reflect.DeepEqual(back, op) {
				t.Fatalf("round trip changed op: %+v -> %+v (err %v)", op, back, err)
			}
			prev = n
		}
	})
}
