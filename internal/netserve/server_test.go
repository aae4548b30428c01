package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/workload"
)

// newEDMServer builds a server with the EDM "ed" view over fsys (nil
// for a plain MemFS) and returns it with its httptest front.
func newEDMServer(t *testing.T, fsys store.FS, sopts Options, popts serve.Options) (*Server, *httptest.Server, *workload.EDM) {
	t.Helper()
	edm := workload.NewEDM()
	pair := core.MustPair(edm.Schema, edm.ED, edm.DM)
	if fsys == nil {
		fsys = store.NewMemFS()
	}
	st, err := store.Create(fsys, pair, edm.Instance(8, 4), edm.Syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sopts)
	if err := srv.AddView("ed", st, edm.Syms, popts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return srv, ts, edm
}

// encodeOps renders ops as a submit body of op frames.
func encodeOps(t *testing.T, ops []WireOp) []byte {
	t.Helper()
	var body []byte
	for _, op := range ops {
		var err error
		if body, err = AppendOpFrame(body, op); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// post sends one submit body with the given Content-Type ("" sends
// none) and tenant ("" sends none). The caller closes the body.
func post(t *testing.T, url, ctype, tenant string, body []byte) *http.Response {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		hreq.Header.Set("Content-Type", ctype)
	}
	if tenant != "" {
		hreq.Header.Set(HeaderTenant, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postFrames submits ops as op frames and decodes the reply's result
// frames; a reply without them (an error body) decodes to none.
func postFrames(t *testing.T, url, tenant string, ops []WireOp) (*http.Response, []OpResult) {
	t.Helper()
	resp := post(t, url, ContentTypeFrame, tenant, encodeOps(t, ops))
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeFrame {
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("submit reply Content-Type = %q, want %q", ct, ContentTypeFrame)
		}
		return resp, nil
	}
	br := bufio.NewReader(resp.Body)
	var results []OpResult
	for {
		res, err := ReadResultFrame(br)
		if err == io.EOF {
			return resp, results
		}
		if err != nil {
			t.Fatalf("decode result frame: %v", err)
		}
		results = append(results, res)
	}
}

func getView(t *testing.T, url string) (*http.Response, ViewResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr ViewResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return resp, vr
}

// pollView reads the view until pred holds. A pipeline publishes
// before it acks, so a read after an ack normally holds on the first
// try; the deadline turns a stale read into a failure, not a hang.
func pollView(t *testing.T, url string, pred func(*http.Response, ViewResponse) bool) (*http.Response, ViewResponse) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, vr := getView(t, url)
		if pred(resp, vr) {
			return resp, vr
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never reached the expected state; last rows %v (seq %d)", vr.Rows, vr.Seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerSubmitAndReadJSON: the protocol end to end — submit a
// mixed batch in op frames, read the view back as JSON, check headers
// and identity marking.
func TestServerSubmitAndReadJSON(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{}, serve.Options{MaxBatch: 4})

	resp, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "", []WireOp{
		{Kind: KindInsert, Tuple: []string{"alice", "dept1"}},
		{Kind: KindReplace, Tuple: []string{"alice", "dept1"}, With: []string{"alice", "dept2"}},
		{Kind: KindDelete, Tuple: []string{"nobody", "dept1"}}, // identity: not in the view
		{Kind: KindInsert, Tuple: []string{"bob", "dept9"}},    // no such department: rejected
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if !results[0].Applied || results[0].Identity {
		t.Errorf("insert: %+v, want applied non-identity", results[0])
	}
	if !results[1].Applied {
		t.Errorf("replace: %+v, want applied", results[1])
	}
	if !results[2].Applied || !results[2].Identity {
		t.Errorf("delete of absent tuple: %+v, want applied identity", results[2])
	}
	if !results[3].Rejected || (results[3].Reason == "" && results[3].Error == "") {
		t.Errorf("impossible insert: %+v, want rejected with a reason", results[3])
	}

	vresp, vr := pollView(t, ts.URL+"/v1/views/ed", func(_ *http.Response, vr ViewResponse) bool {
		for _, row := range vr.Rows {
			if row[0] == "alice" && row[1] == "dept2" {
				return true
			}
		}
		return false
	})
	if got := vresp.Header.Get(HeaderDegraded); got != "false" {
		t.Errorf("%s = %q, want false", HeaderDegraded, got)
	}
	if vr.Seq == 0 {
		t.Errorf("view seq = 0, want progress after applied ops")
	}
	if hdr := vresp.Header.Get(HeaderSeq); hdr != fmt.Sprint(vr.Seq) {
		t.Errorf("%s = %q, body seq %d", HeaderSeq, hdr, vr.Seq)
	}
	for _, row := range vr.Rows {
		if row[0] == "bob" {
			t.Errorf("rejected insert reached the view: %v", row)
		}
	}
}

// TestServerSelfReplaceIsIdentity: a replace of a view tuple by itself
// is acknowledged as the identity, not returned as an op error.
func TestServerSelfReplaceIsIdentity(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{}, serve.Options{MaxBatch: 4})
	alice := []string{"alice", "dept1"}
	resp, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "", []WireOp{
		{Kind: KindInsert, Tuple: alice},
		{Kind: KindReplace, Tuple: alice, With: alice},
	})
	if resp.StatusCode != http.StatusOK || len(results) != 2 {
		t.Fatalf("submit status = %d, %d results", resp.StatusCode, len(results))
	}
	if r := results[1]; !r.Applied || !r.Identity || r.Error != "" {
		t.Fatalf("self-replace: %+v, want applied identity with no error", r)
	}
}

// TestServerReadYourWritesWithoutPriorRead: on a view nobody has read
// yet, the first GET after an ack holds the acked op, stamped with the
// seq it committed at — not the view the server opened with.
func TestServerReadYourWritesWithoutPriorRead(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{}, serve.Options{MaxBatch: 4})
	resp, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "",
		[]WireOp{{Kind: KindInsert, Tuple: []string{"ryw", "dept1"}}})
	if resp.StatusCode != http.StatusOK || len(results) != 1 || !results[0].Applied {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, results)
	}
	vresp, vr := getView(t, ts.URL+"/v1/views/ed")
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d", vresp.StatusCode)
	}
	if !hasRow(vr, "ryw") {
		t.Errorf("first read after the ack misses the acked op (seq %d)", vr.Seq)
	}
	if vr.Seq == 0 {
		t.Errorf("first read after the ack has seq 0, want the op's commit")
	}
}

// TestServerSubmitFramePath: a submit's reply is one result frame per
// op, in request order, including the identity status byte.
func TestServerSubmitFramePath(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{}, serve.Options{MaxBatch: 4})

	resp, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "", []WireOp{
		{Kind: KindInsert, Tuple: []string{"carol", "dept0"}},
		{Kind: KindDelete, Tuple: []string{"carol", "dept0"}},
		{Kind: KindDelete, Tuple: []string{"carol", "dept0"}}, // now absent: identity
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if !results[0].Applied || results[0].Identity {
		t.Errorf("insert: %+v", results[0])
	}
	if !results[1].Applied || results[1].Identity {
		t.Errorf("first delete: %+v", results[1])
	}
	if !results[2].Applied || !results[2].Identity {
		t.Errorf("second delete: %+v, want applied identity", results[2])
	}
}

// TestOpOutcomeRejectedCarriesReasonOnly pins OpResult's "exactly one
// of Applied, Rejected, Shed, or a non-empty Error" contract for a
// rejection: the outcome is Rejected with the decision's reason, and
// Error stays empty (a result frame carries only the reason).
func TestOpOutcomeRejectedCarriesReasonOnly(t *testing.T) {
	d := &core.Decision{Reason: core.ReasonNoSharedMatch}
	res := opOutcome(d, fmt.Errorf("%w: %s", core.ErrRejected, d.Reason))
	want := OpResult{Rejected: true, Reason: core.ReasonNoSharedMatch.String()}
	if res != want {
		t.Fatalf("opOutcome(rejected) = %+v, want %+v", res, want)
	}
}

// TestServerSubmitRequiresFrames: a submit whose Content-Type is not
// the op-frame type gets 415 and applies nothing, whatever its body
// holds: the published seq and the view stay as they were.
func TestServerSubmitRequiresFrames(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{}, serve.Options{MaxBatch: 4})
	jsonBody := []byte(`{"ops":[{"kind":"insert","tuple":["viajson","dept1"]}]}`)
	frameBody := encodeOps(t, []WireOp{{Kind: KindInsert, Tuple: []string{"viajson", "dept1"}}})

	before, _ := getView(t, ts.URL+"/v1/views/ed")
	seq0 := before.Header.Get(HeaderSeq)
	for _, tc := range []struct {
		name, ctype string
		body        []byte
	}{
		{"json body", ContentTypeJSON, jsonBody},
		{"json body, no Content-Type", "", jsonBody},
		{"frame body, no Content-Type", "", frameBody},
	} {
		resp := post(t, ts.URL+"/v1/views/ed/submit", tc.ctype, "", tc.body)
		var eb errBody
		err := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("%s: status %d, want 415", tc.name, resp.StatusCode)
		}
		if err != nil || eb.Error == "" {
			t.Errorf("%s: error body %+v (%v), want a JSON error", tc.name, eb, err)
		}
	}
	after, vr := getView(t, ts.URL+"/v1/views/ed")
	if got := after.Header.Get(HeaderSeq); got != seq0 {
		t.Errorf("%s = %s after refused submits, want %s", HeaderSeq, got, seq0)
	}
	if hasRow(vr, "viajson") {
		t.Errorf("a refused submit reached the view: %v", vr.Rows)
	}
}

// TestServerTenantThrottle: a tenant gets 429 + Retry-After past its
// burst; a second tenant on the same server has its own bucket and is
// unaffected.
func TestServerTenantThrottle(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{
		Admission: AdmissionOptions{Rate: 1, Burst: 2},
	}, serve.Options{MaxBatch: 4})

	submit := func(tenant, emp string) *http.Response {
		resp, _ := postFrames(t, ts.URL+"/v1/views/ed/submit", tenant,
			[]WireOp{{Kind: KindInsert, Tuple: []string{emp, "dept0"}}})
		return resp
	}
	if resp := submit("metered", "m1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first metered submit: %d", resp.StatusCode)
	}
	if resp := submit("metered", "m2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("second metered submit: %d", resp.StatusCode)
	}
	resp := submit("metered", "m3")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("past-burst submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if resp := submit("", "free1"); resp.StatusCode != http.StatusOK {
		t.Errorf("second tenant caught by the first's throttle: %d", resp.StatusCode)
	}
}

// TestServerDegradedReadDuringHealing is the degraded-read protocol
// test: while a pipeline is healing from an injected journal fault —
// held open by a gated Resurrect — reads still answer 200 but carry
// X-Constcomp-Degraded: true; once healing completes the header drops
// and the faulted op's effect is visible. Run under -race this also
// proves the read path and the healing committer share no unsynchronized
// state.
func TestServerDegradedReadDuringHealing(t *testing.T) {
	edm := workload.NewEDM()
	pair := core.MustPair(edm.Schema, edm.ED, edm.DM)
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{
		Match:      func(name string) bool { return name == store.JournalFile },
		FailSyncAt: 2,
	})
	st, err := store.Create(ffs, pair, edm.Instance(8, 4), edm.Syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv := NewServer(Options{})
	err = srv.AddView("ed", st, edm.Syms, serve.Options{
		MaxBatch: 1,
		Resurrect: func() (*store.Session, error) {
			<-gate // hold the pipeline in its healing window
			ns, _, err := store.Recover(ffs, pair, edm.Syms, store.Options{SnapshotEvery: 1 << 20})
			return ns, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		_ = srv.Close()
	}()

	// Land one op that syncs fine and wait for its publish — the stale
	// view served during healing must contain it.
	resp, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "",
		[]WireOp{{Kind: KindInsert, Tuple: []string{"w1", "dept0"}}})
	if resp.StatusCode != http.StatusOK || !results[0].Applied {
		t.Fatalf("warm-up submit: status %d, %+v", resp.StatusCode, results)
	}
	if resp.Header.Get(HeaderDegraded) != "false" {
		t.Fatalf("healthy submit marked degraded")
	}
	pollView(t, ts.URL+"/v1/views/ed", func(_ *http.Response, vr ViewResponse) bool {
		return hasRow(vr, "w1")
	})

	// Second op trips the journal fault; its ack blocks until healing
	// completes, so submit from the background.
	done := make(chan []OpResult, 1)
	go func() {
		_, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "",
			[]WireOp{{Kind: KindInsert, Tuple: []string{"w2", "dept1"}}})
		done <- results
	}()

	// The pipeline enters its healing window (Resurrect blocked on the
	// gate); reads must stay 200 and be explicitly marked degraded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, vr := getView(t, ts.URL+"/v1/views/ed")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read during healing: status %d", resp.StatusCode)
		}
		if resp.Header.Get(HeaderDegraded) == "true" {
			if !vr.Degraded {
				t.Error("degraded header set but body says false")
			}
			// The degraded read serves the last published (pre-fault)
			// view: w1 present, w2 not yet visible.
			if !hasRow(vr, "w1") || hasRow(vr, "w2") {
				t.Errorf("degraded view rows: %v", vr.Rows)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never reported degraded")
		}
		time.Sleep(time.Millisecond)
	}

	close(gate) // let the resurrection proceed
	results = <-done
	if len(results) != 1 || !results[0].Applied {
		t.Fatalf("faulted op after healing: %+v", results)
	}
	for {
		resp, vr := getView(t, ts.URL+"/v1/views/ed")
		if resp.Header.Get(HeaderDegraded) == "false" {
			if !hasRow(vr, "w1") || !hasRow(vr, "w2") {
				t.Errorf("post-heal view rows: %v", vr.Rows)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never recovered from degraded")
		}
		time.Sleep(time.Millisecond)
	}
	if !ffs.Tripped() {
		t.Fatal("fault never fired; test exercised nothing")
	}
}

// journalTrackFS records every journal handle opened through it and
// how often each was closed, so a test can tell which session's
// journal a Close reached.
type journalTrackFS struct {
	store.FS
	mu      sync.Mutex
	handles []*trackedFile
}

type trackedFile struct {
	store.File
	fs     *journalTrackFS
	closes int
}

func (f *trackedFile) Close() error {
	f.fs.mu.Lock()
	f.closes++
	f.fs.mu.Unlock()
	return f.File.Close()
}

func (t *journalTrackFS) track(name string, f store.File, err error) (store.File, error) {
	if err != nil || name != store.JournalFile {
		return f, err
	}
	tf := &trackedFile{File: f, fs: t}
	t.mu.Lock()
	t.handles = append(t.handles, tf)
	t.mu.Unlock()
	return tf, nil
}

func (t *journalTrackFS) Create(name string) (store.File, error) {
	f, err := t.FS.Create(name)
	return t.track(name, f, err)
}

func (t *journalTrackFS) OpenAppend(name string) (store.File, error) {
	f, err := t.FS.OpenAppend(name)
	return t.track(name, f, err)
}

// closes reports each journal handle's close count, in opening order.
func (t *journalTrackFS) closes() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.handles))
	for i, h := range t.handles {
		out[i] = h.closes
	}
	return out
}

// TestServerCloseClosesResurrectedSession pins Server.Close after a
// heal: the pipeline's first session was quarantined (its journal
// closed by the heal) and a resurrected one serves on, so Close must
// close the resurrected session's journal, leave the quarantined one
// alone, and return nil.
func TestServerCloseClosesResurrectedSession(t *testing.T) {
	edm := workload.NewEDM()
	pair := core.MustPair(edm.Schema, edm.ED, edm.DM)
	tfs := &journalTrackFS{FS: store.NewFaultFS(store.NewMemFS(), store.FaultPlan{
		Match:      func(name string) bool { return name == store.JournalFile },
		FailSyncAt: 2,
	})}
	sopts := store.Options{SnapshotEvery: 1 << 20}
	st, err := store.Create(tfs, pair, edm.Instance(8, 4), edm.Syms, sopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	err = srv.AddView("ed", st, edm.Syms, serve.Options{
		MaxBatch: 1,
		Resurrect: func() (*store.Session, error) {
			ns, _, err := store.Recover(tfs, pair, edm.Syms, sopts)
			return ns, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// The second op trips the journal fault; its ack comes after the
	// heal re-journals it on the resurrected session.
	for _, emp := range []string{"w1", "w2"} {
		resp, results := postFrames(t, ts.URL+"/v1/views/ed/submit", "",
			[]WireOp{{Kind: KindInsert, Tuple: []string{emp, "dept0"}}})
		if resp.StatusCode != http.StatusOK || !results[0].Applied {
			t.Fatalf("submit %s: status %d, %+v", emp, resp.StatusCode, results)
		}
	}
	ts.Close()
	if got := tfs.closes(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("journal close counts before Close = %v, want [1 0] (quarantined, resurrected)", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Server.Close = %v, want nil", err)
	}
	if got := tfs.closes(); got[0] != 1 || got[1] != 1 {
		t.Errorf("journal close counts after Close = %v, want [1 1]: Close must close the resurrected session, not the quarantined one", got)
	}
}

func hasRow(vr ViewResponse, emp string) bool {
	for _, row := range vr.Rows {
		if row[0] == emp {
			return true
		}
	}
	return false
}

// TestServerRequestLimits: op-count and malformed-body handling.
func TestServerRequestLimits(t *testing.T) {
	_, ts, _ := newEDMServer(t, nil, Options{}, serve.Options{MaxBatch: 4})

	ops := make([]WireOp, maxOpsPerRequest+1)
	for i := range ops {
		ops[i] = WireOp{Kind: KindInsert, Tuple: []string{fmt.Sprintf("e%d", i), "dept0"}}
	}
	resp, _ := postFrames(t, ts.URL+"/v1/views/ed/submit", "", ops)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("%d ops with limit %d: status %d, want 413", len(ops), maxOpsPerRequest, resp.StatusCode)
	}

	resp, _ = postFrames(t, ts.URL+"/v1/views/ed/submit", "", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty op list: status %d, want 400", resp.StatusCode)
	}

	// One frame of an unknown op kind.
	bresp := post(t, ts.URL+"/v1/views/ed/submit", ContentTypeFrame, "", []byte{1, 0, 0, 0, 'z'})
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", bresp.StatusCode)
	}

	resp, _ = postFrames(t, ts.URL+"/v1/views/nope/submit", "", ops[:1])
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown view: status %d, want 404", resp.StatusCode)
	}

	wresp, _ := postFrames(t, ts.URL+"/v1/views/ed/submit", "",
		[]WireOp{{Kind: KindInsert, Tuple: []string{"only-one-field"}}})
	if wresp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong tuple width: status %d, want 400", wresp.StatusCode)
	}
}

// TestServerBadFrameInternsNothing: a frame the op reader refuses gets
// a 400 with the decode error and interns none of its names, even when
// its Tuple is valid and only its With is truncated, over-long or of
// the wrong width.
func TestServerBadFrameInternsNothing(t *testing.T) {
	_, ts, edm := newEDMServer(t, nil, Options{}, serve.Options{})
	frame := func(kind core.UpdateKind, lists ...[]string) []byte {
		payload := []byte{byte(kind)}
		for _, l := range lists {
			payload = store.AppendNames(payload, l)
		}
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	truncated := frame(core.UpdateReplace, []string{"fresh-a", "dept0"}, []string{"fresh-a2", "dept1"})
	truncated = truncated[:len(truncated)-2]
	binary.LittleEndian.PutUint32(truncated, uint32(len(truncated)-4))
	long := strings.Repeat("x", maxFieldBytes+1)
	for _, c := range []struct {
		body  []byte
		fresh []string
		want  string
	}{
		{truncated, []string{"fresh-a", "fresh-a2"}, "decode: unexpected EOF"},
		{frame(core.UpdateReplace, []string{"fresh-b", "dept0"}, []string{"fresh-b", long}), []string{"fresh-b", long},
			fmt.Sprintf("decode: netserve: field of %d bytes exceeds frame limit %d", maxFieldBytes+1, maxFieldBytes)},
		{frame(core.UpdateInsert, []string{"fresh-c"}), []string{"fresh-c"},
			`decode: tuple has 1 fields, view "ed" has 2 columns`},
		{frame(core.UpdateReplace, []string{"fresh-d", "dept0"}, []string{"fresh-d", "dept1", "x"}), []string{"fresh-d"},
			`decode: tuple has 3 fields, view "ed" has 2 columns`},
	} {
		resp := post(t, ts.URL+"/v1/views/ed/submit", ContentTypeFrame, "", c.body)
		var eb errBody
		err := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Error != c.want {
			t.Errorf("status %d, error %q (%v); want 400 with %q", resp.StatusCode, eb.Error, err, c.want)
		}
		for _, name := range c.fresh {
			if _, ok := edm.Syms.Lookup(name); ok {
				t.Errorf("refused frame interned %.20q", name)
			}
		}
	}
}
