package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
)

// HeaderSpan carries a client span's ID to the server-side handler span,
// linking the two halves of one request in the trace.
const HeaderSpan = "X-Bench-Span"

// Handler wraps netserve.Server.Handler() and, while a span buffer is
// installed, times every request the server handles as a
// netserve.handler span parented to the client span named in HeaderSpan.
type Handler struct {
	Inner http.Handler
	spans atomic.Pointer[Spans]
}

// Trace installs (or, with nil, removes) the span buffer.
func (h *Handler) Trace(s *Spans) { h.spans.Store(s) }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.spans.Load()
	if sp == nil {
		h.Inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(HeaderSpan), 10, 64)
	t0 := obs.NowNS()
	h.Inner.ServeHTTP(w, r)
	sp.Record(SpanNetHandler, parent, t0, obs.NowNS())
}

// NetClient is one closed-loop client on its own keep-alive connection:
// each iteration is a Window-op binary-frame submit or, on netReadPct of
// iterations, a full view read, and the next starts only when the
// previous response has been read in full.
type NetClient struct {
	E    *Env
	C    *Client
	HTTP *http.Client
	Base string // http://host:port
	rng  *rand.Rand
}

// NewNetClient builds the client for e.Clients[i] against base.
func NewNetClient(e *Env, i int, base string, seed int64) *NetClient {
	return &NetClient{
		E:    e,
		C:    e.Clients[i],
		Base: base,
		// One idle connection per client: its requests reuse one socket.
		HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		rng:  rand.New(rand.NewSource(seed*7_000_003 + int64(i))),
	}
}

// Run sends iterations until at least ops update ops have been
// submitted, or obs.NowNS passes deadline (0: no deadline). An error
// means the connection itself failed.
func (n *NetClient) Run(ops int, deadline int64, ph *Phase, sp *Spans) error {
	for sent := 0; sent < ops && (deadline == 0 || obs.NowNS() < deadline); {
		if n.rng.Intn(100) < netReadPct {
			if err := n.read(ph, sp); err != nil {
				return err
			}
			continue
		}
		k, err := n.submit(ph, sp)
		if err != nil {
			return err
		}
		sent += k
	}
	return nil
}

// Close drops the client's idle connection.
func (n *NetClient) Close() { n.HTTP.CloseIdleConnections() }

func (n *NetClient) do(req *http.Request, id uint64) (*http.Response, error) {
	if id != 0 {
		req.Header.Set(HeaderSpan, strconv.FormatUint(id, 10))
	}
	return n.HTTP.Do(req)
}

// submit sends one request of Window ops and settles each op by its
// result frame. It returns the number of ops sent.
func (n *NetClient) submit(ph *Phase, sp *Spans) (int, error) {
	ops := make([]Op, n.E.Spec.Window)
	var body []byte
	for i := range ops {
		ops[i] = n.C.Next()
		var err error
		if body, err = netserve.AppendOpFrame(body, n.E.WireOp(ops[i])); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(http.MethodPost, n.Base+"/v1/views/ed/submit", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", netserve.ContentTypeFrame)
	id := sp.Reserve()
	ph.Attempted += len(ops)
	t0 := obs.NowNS()
	results, err := n.roundTrip(req, id)
	t1 := obs.NowNS()
	sp.Fill(id, SpanClientSubmit, 0, t0, t1)
	if err != nil {
		for _, op := range ops {
			n.E.settle(op, false)
		}
		ph.Failed += len(ops)
		return len(ops), err
	}
	ph.Updates = append(ph.Updates, Sample{DoneNS: t1, MS: float64(t1-t0) / 1e6, Ops: len(ops)})
	for i, op := range ops {
		applied := false
		switch res := results[i]; {
		case res.Applied && res.Identity:
			ph.Identity++
			ph.Failed++
			ph.Journaled++
		case res.Applied:
			applied = true
			ph.Acked++
			ph.Journaled++
		default:
			ph.Failed++
		}
		n.E.settle(op, applied)
	}
	return len(ops), nil
}

// roundTrip posts a submit and decodes one result frame per op; any
// transport error, non-200 status or short response is an error.
func (n *NetClient) roundTrip(req *http.Request, id uint64) ([]netserve.OpResult, error) {
	resp, err := n.do(req, id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("submit: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	var out []netserve.OpResult
	for {
		res, err := netserve.ReadResultFrame(br)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	if len(out) != n.E.Spec.Window {
		return nil, fmt.Errorf("submit: %d results for %d ops", len(out), n.E.Spec.Window)
	}
	return out, nil
}

// read fetches the full view.
func (n *NetClient) read(ph *Phase, sp *Spans) error {
	ph.Attempted++
	id := sp.Reserve()
	t0 := obs.NowNS()
	vr, err := n.getView(id)
	t1 := obs.NowNS()
	sp.Fill(id, SpanClientRead, 0, t0, t1)
	if err != nil {
		ph.Failed++
		return err
	}
	ph.Reads = append(ph.Reads, Sample{DoneNS: t1, MS: float64(t1-t0) / 1e6})
	if len(vr.Rows) == 0 {
		ph.Failed++
	}
	return nil
}

func (n *NetClient) getView(id uint64) (*netserve.ViewResponse, error) {
	req, err := http.NewRequest(http.MethodGet, n.Base+"/v1/views/ed", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.do(req, id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("read: %s", resp.Status)
	}
	var vr netserve.ViewResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		return nil, err
	}
	return &vr, nil
}

// CheckServed is the network workload's correctness gate: a GET of the
// view must equal the model of every acked op, base rows untouched.
// Acks go out before the committer publishes their batch, so the read
// is repeated until it is current as of seq (every journaled op).
func (n *NetClient) CheckServed(seq uint64) error {
	for try := 0; ; try++ {
		vr, err := n.getView(0)
		if err != nil {
			return err
		}
		if vr.Seq < seq && try < 1000 {
			continue
		}
		if vr.Seq != seq {
			return fmt.Errorf("served view is at seq %d, %d ops were journaled", vr.Seq, seq)
		}
		got := make(map[string]string, len(vr.Rows))
		for _, row := range vr.Rows {
			got[row[n.E.eCol]] = row[n.E.dCol]
		}
		if diff := DiffViews(got, n.E.Expected(), 5); len(diff) > 0 {
			return fmt.Errorf("served view differs from the client model: %v", diff)
		}
		return nil
	}
}
