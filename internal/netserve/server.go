package netserve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// Options tunes the server. The zero value is ready to use.
type Options struct {
	// Admission configures the per-tenant gate on the submit path.
	Admission AdmissionOptions
	// ConnOpBudget bounds the ops one client connection may submit over
	// its lifetime; 0 disables. Exhausted connections get 429 with
	// Connection: close, so a runaway client is forced to re-dial
	// through fresh admission. Requires wiring ConnContext into the
	// http.Server.
	ConnOpBudget int64
	// Registry, when set, is served at /metricz (JSON) and
	// /metricz.prom (Prometheus text).
	Registry *obs.Registry
}

// Bounds on one submit request: its op count (413 beyond it) and its
// body size (400 beyond it).
const (
	maxOpsPerRequest = 256
	maxBodyBytes     = 1 << 20
)

// viewState is one named view behind the server.
type viewState struct {
	name  string
	pipe  *serve.Pipeline
	syms  *value.Symbols
	attrs []string // column names in view column order
	width int
}

// Server fronts one serve.Pipeline per named view schema with HTTP.
// Handlers run on net/http's connection goroutines; all shared state is
// behind the views lock, the admission gate's lock, or the pipelines'
// own synchronization.
type Server struct {
	opts Options
	adm  *Admission

	mu    sync.RWMutex
	views map[string]*viewState

	mux *http.ServeMux
}

// NewServer builds a server with no views; add them with AddView.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:  opts,
		adm:   NewAdmission(opts.Admission),
		views: make(map[string]*viewState),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/views", s.handleListViews)
	s.mux.HandleFunc("GET /v1/views/{name}", s.handleGetView)
	s.mux.HandleFunc("POST /v1/views/{name}/submit", s.handleSubmit)
	if opts.Registry != nil {
		s.mux.HandleFunc("GET /metricz", s.handleMetrics)
		s.mux.HandleFunc("GET /metricz.prom", s.handleMetricsProm)
	}
	return s
}

// AddView starts a self-healing pipeline over st and exposes it as
// /v1/views/{name}. syms must be the symbol table st journals with (it
// is concurrency-safe; handlers intern incoming constants through it).
// The caller must not use st directly afterwards.
func (s *Server) AddView(name string, st *store.Session, syms *value.Symbols, popts serve.Options) error {
	if name == "" {
		return fmt.Errorf("netserve: empty view name")
	}
	u := st.Pair().Schema().Universe()
	ids := st.Pair().ViewAttrs().IDs()
	attrs := make([]string, len(ids))
	for i, id := range ids {
		attrs[i] = u.Name(id)
	}
	pipe, err := serve.New(st, popts)
	if err != nil {
		return err
	}
	vs := &viewState{
		name:  name,
		pipe:  pipe,
		syms:  syms,
		attrs: attrs,
		width: len(attrs),
	}
	s.mu.Lock()
	_, dup := s.views[name]
	if !dup {
		s.views[name] = vs
	}
	s.mu.Unlock()
	if dup {
		// Close outside the lock: it waits for the pipeline's goroutines
		// to drain, and every request handler contends on s.mu.
		_ = pipe.Close()
		return fmt.Errorf("netserve: view %q already registered", name)
	}
	return nil
}

// view looks a registered view up.
func (s *Server) view(name string) (*viewState, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs, ok := s.views[name]
	return vs, ok
}

// viewNames returns the registered names sorted (deterministic output;
// map iteration order must never reach a response).
func (s *Server) viewNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.views))
	for name := range s.views {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Close shuts the admission gate, then drains every pipeline and closes
// the store session behind it (which a resurrection may have swapped
// since the view was added).
func (s *Server) Close() error {
	s.adm.Close()
	var firstErr error
	for _, name := range s.viewNames() {
		vs, ok := s.view(name)
		if !ok {
			continue
		}
		err := vs.pipe.Close()
		if serr := vs.pipe.Store().Close(); err == nil {
			err = serr
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m := nsmetrics.Load(); m != nil {
			m.requests.Inc()
		}
		s.mux.ServeHTTP(w, r)
	})
}

// connBudget is the per-connection op allowance installed by
// ConnContext.
type connBudget struct{ left atomic.Int64 }

// take reserves n ops, reporting whether the budget covered them.
func (b *connBudget) take(n int64) bool { return b.left.Add(-n) >= 0 }

type connBudgetKey struct{}

// ConnContext is for http.Server.ConnContext: it attaches the
// per-connection op budget each submit draws down.
func (s *Server) ConnContext(ctx context.Context, c net.Conn) context.Context {
	if s.opts.ConnOpBudget <= 0 {
		return ctx
	}
	b := &connBudget{}
	b.left.Store(s.opts.ConnOpBudget)
	return context.WithValue(ctx, connBudgetKey{}, b)
}

// tenantOf extracts the request's tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	return TenantDefault
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	if m := nsmetrics.Load(); m != nil {
		m.responses.Inc()
		if status >= 500 {
			m.errors5xx.Inc()
		}
	}
}

// errBody is the uniform error envelope.
type errBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errBody{Error: fmt.Sprintf(format, args...)})
}

// viewStatuses lists every registered view's published state, sorted
// by name.
func (s *Server) viewStatuses() []ViewStatus {
	out := []ViewStatus{}
	for _, name := range s.viewNames() {
		vs, ok := s.view(name)
		if !ok {
			continue
		}
		_, seq, degraded := vs.pipe.Published()
		out = append(out, ViewStatus{Name: name, Seq: seq, Degraded: degraded})
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	type health struct {
		OK    bool         `json:"ok"`
		Views []ViewStatus `json:"views"`
	}
	writeJSON(w, http.StatusOK, health{OK: true, Views: s.viewStatuses()})
}

func (s *Server) handleListViews(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.viewStatuses())
}

func (s *Server) handleGetView(w http.ResponseWriter, r *http.Request) {
	t0 := obs.NowNS()
	vs, ok := s.view(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown view %q", r.PathValue("name"))
		return
	}
	view, seq, degraded := vs.pipe.Published()
	resp := ViewResponse{Name: vs.name, Attrs: vs.attrs, Seq: seq, Degraded: degraded}
	if view != nil {
		rows := view.Sorted(view.Attrs())
		resp.Rows = make([][]string, len(rows))
		for i, t := range rows {
			row := make([]string, len(t))
			for c, v := range t {
				row[c] = vs.syms.Name(v)
			}
			resp.Rows[i] = row
		}
	}
	w.Header().Set(HeaderDegraded, strconv.FormatBool(degraded))
	w.Header().Set(HeaderSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Cache-Control", "no-store")
	if m := nsmetrics.Load(); m != nil {
		if degraded {
			m.degradedReads.Inc()
		}
		m.readNs.ObserveDuration(obs.NowNS() - t0)
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseTuple interns one wire tuple against the view's layout.
func (vs *viewState) parseTuple(fields []string) (relation.Tuple, error) {
	if len(fields) != vs.width {
		return nil, fmt.Errorf("tuple has %d fields, view %q has %d columns", len(fields), vs.name, vs.width)
	}
	t := make(relation.Tuple, len(fields))
	for i, f := range fields {
		t[i] = vs.syms.Const(f)
	}
	return t, nil
}

// parseOp converts one WireOp into the core op it denotes.
func (vs *viewState) parseOp(op WireOp) (core.UpdateOp, error) {
	tuple, err := vs.parseTuple(op.Tuple)
	if err != nil {
		return core.UpdateOp{}, err
	}
	switch op.Kind {
	case KindInsert:
		if len(op.With) != 0 {
			return core.UpdateOp{}, fmt.Errorf("insert carries a with tuple")
		}
		return core.Insert(tuple), nil
	case KindDelete:
		if len(op.With) != 0 {
			return core.UpdateOp{}, fmt.Errorf("delete carries a with tuple")
		}
		return core.Delete(tuple), nil
	case KindReplace:
		with, err := vs.parseTuple(op.With)
		if err != nil {
			return core.UpdateOp{}, err
		}
		return core.Replace(tuple, with), nil
	}
	return core.UpdateOp{}, fmt.Errorf("unknown op kind %q", op.Kind)
}

// decodeOps reads a submit body of op frames.
func decodeOps(r *http.Request, vs *viewState) ([]core.UpdateOp, error) {
	br := bufio.NewReader(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	var ops []core.UpdateOp
	for {
		wop, err := ReadOpFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return ops, nil
			}
			return nil, err
		}
		op, err := vs.parseOp(wop)
		if err != nil {
			return nil, err
		}
		if len(ops) >= maxOpsPerRequest {
			return nil, errTooManyOps
		}
		ops = append(ops, op)
	}
}

var errTooManyOps = errors.New("too many ops in one request")

// opOutcome maps one op's fate onto the wire.
func opOutcome(d *core.Decision, err error) OpResult {
	switch {
	case err == nil:
		res := OpResult{Applied: true}
		if d != nil {
			res.Reason = d.Reason.String()
			res.Identity = d.Reason == core.ReasonIdentity
		}
		return res
	case errors.Is(err, core.ErrRejected):
		res := OpResult{Rejected: true, Error: err.Error()}
		if d != nil {
			res.Reason = d.Reason.String()
		}
		return res
	case errors.Is(err, serve.ErrShed):
		return OpResult{Shed: true}
	default:
		return OpResult{Error: err.Error()}
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := obs.NowNS()
	m := nsmetrics.Load()
	vs, ok := s.view(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown view %q", r.PathValue("name"))
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != ContentTypeFrame {
		writeErr(w, http.StatusUnsupportedMediaType, "submit body must be %s, got %q", ContentTypeFrame, ct)
		return
	}
	ops, err := decodeOps(r, vs)
	if err != nil {
		if errors.Is(err, errTooManyOps) {
			writeErr(w, http.StatusRequestEntityTooLarge, "%v (limit %d)", err, maxOpsPerRequest)
			return
		}
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(ops) == 0 {
		writeErr(w, http.StatusBadRequest, "empty op list")
		return
	}
	if m != nil {
		m.submitOps.Add(int64(len(ops)))
		m.opsPerReq.Observe(float64(len(ops)))
	}

	// Connection-scoped budget: a connection that spent its allowance
	// must re-dial; admission then sees it as a fresh arrival.
	if b, ok := r.Context().Value(connBudgetKey{}).(*connBudget); ok {
		if !b.take(int64(len(ops))) {
			if m != nil {
				m.budgetExceeded.Inc()
			}
			w.Header().Set("Connection", "close")
			writeErr(w, http.StatusTooManyRequests, "connection op budget exhausted")
			return
		}
	}

	// Per-tenant admission: token bucket, then the weighted fair queue.
	tenant := tenantOf(r)
	release, err := s.adm.Acquire(r.Context(), tenant, float64(len(ops)))
	if err != nil {
		var te *ThrottleError
		switch {
		case errors.As(err, &te):
			secs := (te.RetryAfterNS + 999_999_999) / 1_000_000_000
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeErr(w, http.StatusTooManyRequests, "tenant %q over rate", tenant)
		case errors.Is(err, ErrTenantTableFull):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrAdmissionClosed):
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		default: // context cancellation: the client is gone
			writeErr(w, http.StatusRequestTimeout, "%v", err)
		}
		return
	}
	defer release()

	// Enqueue the whole request before waiting on any op: ops in flight
	// together share the pipeline's group commit (one fsync).
	pends := make([]*serve.Pending, len(ops))
	results := make([]OpResult, len(ops))
	for i, op := range ops {
		pend, err := vs.pipe.ApplyAsync(r.Context(), op)
		if err != nil {
			if errors.Is(err, store.ErrSessionBroken) || errors.Is(err, serve.ErrClosed) {
				writeErr(w, http.StatusServiceUnavailable, "view %q unavailable: %v", vs.name, err)
				return
			}
			results[i] = opOutcome(nil, err)
			continue
		}
		pends[i] = pend
	}
	broken := false
	for i, pend := range pends {
		if pend == nil {
			continue
		}
		d, err := pend.Wait()
		if err != nil && errors.Is(err, store.ErrSessionBroken) {
			broken = true
		}
		results[i] = opOutcome(d, err)
	}
	if m != nil {
		for _, res := range results {
			if res.Shed {
				m.submitShed.Inc()
			}
		}
	}

	// The degraded header reports the pipeline's state after this
	// request's ops settled: true while it heals or once it latched.
	_, seq, _ := vs.pipe.Published()
	w.Header().Set(HeaderDegraded, strconv.FormatBool(vs.pipe.Degraded()))
	w.Header().Set(HeaderSeq, strconv.FormatUint(seq, 10))
	status := http.StatusOK
	if broken {
		// The pipeline latched mid-request: per-op results still report
		// each op's definite fate, but the view is now unavailable for
		// writes — that is a server failure, not a client one.
		status = http.StatusServiceUnavailable
	}
	if m != nil {
		m.submitNs.ObserveDuration(obs.NowNS() - t0)
	}
	w.Header().Set("Content-Type", ContentTypeFrame)
	w.WriteHeader(status)
	var buf []byte
	for _, res := range results {
		buf = AppendResultFrame(buf, res)
	}
	_, _ = w.Write(buf)
	if m != nil {
		m.responses.Inc()
		if status >= 500 {
			m.errors5xx.Inc()
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	_ = s.opts.Registry.WriteJSON(w)
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.opts.Registry.WritePrometheus(w)
}
