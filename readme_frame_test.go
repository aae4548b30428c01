package constcomp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/workload"
)

// TestReadmeSubmitFrames keeps README.md's hand-built submit body in
// the wire layout: the string its `printf` writes must decode, through
// the op reader the server runs, to (insert ann dept1) then (delete
// nobody dept0), and a server over the EDM view must answer it as the
// README shows: applied, then applied as the identity.
func TestReadmeSubmitFrames(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\$ printf '([^']*)' \|`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md holds no printf of a submit body")
	}
	body := regexp.MustCompile(`\\x[0-9a-f]{2}`).ReplaceAllFunc(m[1], func(esc []byte) []byte {
		b, _ := strconv.ParseUint(string(esc[2:]), 16, 8)
		return []byte{byte(b)}
	})

	edm := workload.NewEDM()
	tuple := func(e, d string) relation.Tuple { return relation.Tuple{edm.Syms.Const(e), edm.Syms.Const(d)} }
	want := []core.UpdateOp{core.Insert(tuple("ann", "dept1")), core.Delete(tuple("nobody", "dept0"))}
	rest := body
	for i, w := range want {
		if len(rest) < 4 || uint64(len(rest)-4) < uint64(binary.LittleEndian.Uint32(rest)) {
			t.Fatalf("frame %d: %x is not a whole frame", i, rest)
		}
		n := 4 + int(binary.LittleEndian.Uint32(rest))
		op, err := store.DecodeOp(rest[4:n], 2, 4096, edm.Syms, nil)
		if err != nil || op.Kind != w.Kind || !op.Tuple.Equal(w.Tuple) || op.With != nil {
			t.Fatalf("frame %d decodes to %+v (%v), want %+v", i, op, err, w)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes follow the two frames", len(rest))
	}

	pair := core.MustPair(edm.Schema, edm.ED, edm.DM)
	st, err := store.Create(store.NewMemFS(), pair, edm.Instance(8, 4), edm.Syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := netserve.NewServer(netserve.Options{})
	if err := srv.AddView("ed", st, edm.Syms, serve.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		_ = srv.Close()
	}()
	resp, err := http.Post(ts.URL+"/v1/views/ed/submit", netserve.ContentTypeFrame, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg)
	}
	br := bufio.NewReader(resp.Body)
	var got []netserve.OpResult
	for {
		res, err := netserve.ReadResultFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if len(got) != 2 || !got[0].Applied || got[0].Identity || !got[1].Applied || !got[1].Identity {
		t.Fatalf("results %+v, want applied then applied as the identity", got)
	}
}
