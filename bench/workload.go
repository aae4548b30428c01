// Package bench is the repository's end-to-end benchmark: three closed-
// loop workloads run against the configuration the serving stack ships
// with (store snapshots every 64 ops, incremental decide on, speculative
// decider on, viewsrv's serve and admission options), every output
// checked against a client-side model, every layer measured from outside
// the program. See README.md.
//
// Library code here holds the generators, the probes, the oracle, and
// the metric math; the entry point and the goroutines the network
// workload needs (the HTTP server and its two client connections) live
// in main_test.go, and run.sh builds and runs the package as a test
// binary.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// Spec is one workload. Every workload uses the paper's EDM schema
// (U = EDM, Σ = {E→D, D→M}) with view ED and complement DM over
// workload.EDM.Instance(Emp, Depts) plus the clients' pre-populated
// rows.
type Spec struct {
	Name string

	Emp, Depts int // base instance: Emp employees over Depts departments
	Clients    int
	Keys       int  // keys per client
	Net        bool // through netserve over HTTP with a DirFS store

	// Window is the ops one in-process submitter keeps outstanding, or
	// the ops per submit request on the network workload.
	Window int
	// OpsPerSecond sizes a run: a run applies OpsPerSecond × --seconds
	// update ops, a count fixed per workload so that a faster commit
	// finishes sooner instead of reaching a bigger state (the core
	// session's log grows with every op). The rate was calibrated on a
	// 2-vCPU VM whose speed drifts by up to 40% over minutes: a run there
	// takes a little under --seconds at its ordinary speed, up to 1.5
	// times that in its slowest stretches.
	OpsPerSecond int
	// WarmOps are applied in setup, before timing starts.
	WarmOps int
}

// netReadPct is the share of network iterations that are full-view
// reads under load.
const netReadPct = 10

// A traced run measures full-view read latency on the idle system after
// its timed phase, repeating reads until there are at least minReads and
// readNS has passed, up to maxReads. Under write load a read's latency
// is mostly how the two CPUs happen to be shared with the writers and
// the collector, which swings by half between seconds of one run; on
// the idle system it measures the read path itself.
const (
	minReads = 300
	maxReads = 10000
	readNS   = 2_500_000_000
)

// ReadIdle repeats read until the idle-read quota is met or read fails.
func ReadIdle(read func() error) error {
	for t0, n := obs.NowNS(), 0; n < maxReads && (n < minReads || obs.SinceNS(t0) < readNS); n++ {
		if err := read(); err != nil {
			return err
		}
	}
	return nil
}

// ReplayOps is how many acked ops a traced run replays through a serial
// core.Session to time core.Session.ApplyCtx and cross-check the model.
const ReplayOps = 2000

// padRecords is the journal length every store is padded to before
// recovery is timed, so each timed restart replays the same number of
// records whatever op count the snapshot cadence cut the run at.
const padRecords = 32

// Specs are the benchmark's workloads; README.md says why each exists.
var Specs = []Spec{
	{
		// The only workload through HTTP, admission, the read handler and
		// a real fsync; small groups keep decide and O(N) work minor.
		Name: "net-durable",
		Emp:  256, Depts: 64, Clients: 2, Keys: 256,
		Net: true, Window: 16, OpsPerSecond: 3200, WarmOps: 128,
	},
	{
		// N = 4096 with ~5-member groups: per-op costs proportional to
		// the instance dominate.
		Name: "pipe-large",
		Emp:  4096, Depts: 1024, Clients: 1, Keys: 2048,
		Window: 64, OpsPerSecond: 500, WarmOps: 64,
	},
	{
		// Every op lands in a ~90-member department: decide over the
		// group dominates.
		Name: "hot-group",
		Emp:  1024, Depts: 16, Clients: 1, Keys: 512,
		Window: 64, OpsPerSecond: 250, WarmOps: 64,
	},
}

// SpecByName looks a workload up.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Env is one set-up instance of a workload: the program under test, the
// clients driving it, and the probes measuring it.
type Env struct {
	Spec    Spec
	EDM     *workload.EDM
	Pair    *core.Pair
	Probe   *FSProbe
	Clients []*Client
	// Initial is the expected view at setup, before warm-up; InitDB is
	// the matching base instance, kept only when a replay will need it.
	Initial map[string]string
	InitDB  *relation.Relation

	keyVals  [][]value.Value
	deptVals []value.Value
	eCol     int // E's column in view tuples
	dCol     int // D's column in view tuples

	// Exactly one of these is the system under test.
	Pipe *serve.Pipeline
	Net  *netserve.Server

	fs  store.FS // the probed store filesystem
	dir string   // DirFS root on the network workload

	mu    sync.Mutex
	acked []Op // the first ReplayOps acked ops, in ack order
}

// Setup builds a fresh instance of spec from seed: base instance,
// pre-populated client keys, store and pipeline or server. dir is
// an empty directory the network workload's journal may use. keepDB
// retains the initial base instance for a later replay.
func Setup(spec Spec, seed int64, dir string, keepDB bool) (*Env, error) {
	edm := workload.NewEDM()
	pair, err := core.NewPair(edm.Schema, edm.ED, edm.DM)
	if err != nil {
		return nil, err
	}
	e := &Env{Spec: spec, EDM: edm, Pair: pair, Probe: &FSProbe{}, dir: dir}
	u := edm.Schema.Universe()
	for i, id := range pair.ViewAttrs().IDs() {
		switch u.Name(id) {
		case "E":
			e.eCol = i
		case "D":
			e.dCol = i
		}
	}

	db := edm.Instance(spec.Emp, spec.Depts)
	e.deptVals = make([]value.Value, spec.Depts)
	for d := range e.deptVals {
		e.deptVals[d] = edm.Syms.Const(DeptName(d))
	}
	eID, _ := u.Lookup("E")
	dID, _ := u.Lookup("D")
	mID, _ := u.Lookup("M")
	e.Initial = map[string]string{}
	BaseRows(spec.Emp, spec.Depts, e.Initial)
	for c := 0; c < spec.Clients; c++ {
		cl := NewClient(c, spec.Keys, spec.Depts, seed)
		e.Clients = append(e.Clients, cl)
		vals := make([]value.Value, spec.Keys)
		for k := range vals {
			vals[k] = edm.Syms.Const(KeyName(c, k))
			if d := cl.Dept(k); d >= 0 {
				t := make(relation.Tuple, 3)
				t[db.Col(eID)], t[db.Col(dID)], t[db.Col(mID)] = vals[k], e.deptVals[d], edm.Syms.Const(MgrName(d))
				db.Insert(t)
			}
		}
		e.keyVals = append(e.keyVals, vals)
		cl.Rows(e.Initial)
	}
	if keepDB {
		e.InitDB = db.Clone()
	}
	return e, e.open(db)
}

// open starts the system under test over db with the shipped defaults.
func (e *Env) open(db *relation.Relation) error {
	syms := e.EDM.Syms
	switch {
	case e.Spec.Net:
		dirFS, err := store.NewDirFS(e.dir)
		if err != nil {
			return err
		}
		fsys := e.Probe.Wrap(dirFS)
		e.fs = fsys
		st, _, err := store.Open(fsys, e.Pair, db, syms, store.Options{})
		if err != nil {
			return err
		}
		// cmd/viewsrv's defaults: 16 admission slots, a 64-tenant table,
		// group commits of 32, shedding on a full queue, and self-healing
		// by recovery from the same journal.
		e.Net = netserve.NewServer(netserve.Options{
			Admission: netserve.AdmissionOptions{Slots: 16, MaxTenants: 64},
		})
		return e.Net.AddView("ed", st, syms, serve.Options{
			MaxBatch:   32,
			ShedOnFull: true,
			Resurrect: func() (*store.Session, error) {
				ns, _, err := store.Recover(fsys, e.Pair, syms, store.Options{})
				return ns, err
			},
		})
	default:
		e.fs = e.Probe.Wrap(store.NewMemFS())
		st, err := store.Create(e.fs, e.Pair, db, syms, store.Options{})
		if err != nil {
			return err
		}
		if e.Pipe, err = serve.New(st, serve.Options{}); err != nil {
			return err
		}
		// Readers arrive during the run; turn the lazy read path on now
		// so the first read already finds a published view.
		e.Pipe.Published()
		return nil
	}
}

// Close shuts the system down, draining every accepted op.
func (e *Env) Close() error {
	switch {
	case e.Net != nil:
		err := e.Net.Close()
		e.Net = nil
		return err
	case e.Pipe != nil:
		err := e.Pipe.Close()
		if cerr := e.Pipe.Store().Close(); err == nil {
			err = cerr
		}
		e.Pipe = nil
		return err
	}
	return nil
}

// UpdateOp renders a model op as the core op the program receives.
func (e *Env) UpdateOp(op Op) core.UpdateOp {
	tuple := func(d int) relation.Tuple {
		t := make(relation.Tuple, 2)
		t[e.eCol], t[e.dCol] = e.keyVals[op.Client][op.Key], e.deptVals[d]
		return t
	}
	switch op.Kind {
	case core.UpdateInsert:
		return core.Insert(tuple(op.To))
	case core.UpdateDelete:
		return core.Delete(tuple(op.From))
	}
	return core.Replace(tuple(op.From), tuple(op.To))
}

// WireOp renders a model op for the network front-end.
func (e *Env) WireOp(op Op) netserve.WireOp {
	tuple := func(d int) []string {
		t := make([]string, 2)
		t[e.eCol], t[e.dCol] = KeyName(op.Client, op.Key), DeptName(d)
		return t
	}
	switch op.Kind {
	case core.UpdateInsert:
		return netserve.WireOp{Kind: netserve.KindInsert, Tuple: tuple(op.To)}
	case core.UpdateDelete:
		return netserve.WireOp{Kind: netserve.KindDelete, Tuple: tuple(op.From)}
	}
	return netserve.WireOp{Kind: netserve.KindReplace, Tuple: tuple(op.From), With: tuple(op.To)}
}

// settle records one op's fate against its client's model. Safe for
// concurrent clients.
func (e *Env) settle(op Op, applied bool) {
	e.Clients[op.Client].Ack(op, applied)
	if !applied {
		return
	}
	e.mu.Lock()
	if len(e.acked) < ReplayOps {
		e.acked = append(e.acked, op)
	}
	e.mu.Unlock()
}

// Expected is the view the clients' acks imply.
func (e *Env) Expected() map[string]string {
	want := map[string]string{}
	BaseRows(e.Spec.Emp, e.Spec.Depts, want)
	for _, c := range e.Clients {
		c.Rows(want)
	}
	return want
}

// viewNames renders view rows as employee → department names.
func viewNames(v *relation.Relation, syms *value.Symbols, eCol, dCol int) map[string]string {
	out := make(map[string]string, v.Len())
	for _, t := range v.Tuples() {
		out[syms.Name(t[eCol])] = syms.Name(t[dCol])
	}
	return out
}

// checkView compares a view against the expected one.
func (e *Env) checkView(what string, v *relation.Relation, syms *value.Symbols, want map[string]string) error {
	if v == nil {
		return fmt.Errorf("%s: no view", what)
	}
	if diff := DiffViews(viewNames(v, syms, e.eCol, e.dCol), want, 5); len(diff) > 0 {
		return fmt.Errorf("%s differs from the client model: %v", what, diff)
	}
	return nil
}

// published is the view an in-process reader sees now.
func (e *Env) published() *relation.Relation {
	v, _, _ := e.Pipe.Published()
	return v
}

// CheckPublished is the correctness gate on the live system: the view a
// reader sees now must equal the model of every acked op, with base
// rows untouched. The network workload checks its GET instead.
func (e *Env) CheckPublished() error {
	return e.checkView("published view", e.published(), e.EDM.Syms, e.Expected())
}

// Phase accumulates what one timed phase measured.
type Phase struct {
	Attempted int // update ops and reads sent
	Failed    int // transport errors, non-200s, sheds, op errors, rejections
	Identity  int // acked as identity: the model says the op changed state
	Acked     int // update ops applied
	Journaled int // ops a server acked as applied, identities included
	StartNS   int64
	WallNS    int64

	// Updates holds a sample per unit of client work — one op, or one
	// submit request on the network — and Reads one per full-view read.
	Updates []Sample
	Reads   []Sample

	EnqueueUS []float64 // serve.Pipeline.ApplyAsync, in µs

	ChaseCalls int64 // summed over returned decisions
	Decisions  int   // decisions returned to the benchmark
}

// Sample is one completed unit of client work.
type Sample struct {
	DoneNS int64   // obs.NowNS when the reply arrived
	MS     float64 // latency from send to reply
	Ops    int     // update ops it carried (0 for a read)
}

// Merge adds o's counts and samples into p.
func (p *Phase) Merge(o *Phase) {
	p.Attempted += o.Attempted
	p.Failed += o.Failed
	p.Identity += o.Identity
	p.Acked += o.Acked
	p.Journaled += o.Journaled
	p.Updates = append(p.Updates, o.Updates...)
	p.Reads = append(p.Reads, o.Reads...)
}

// Failures is the correctness gate's verdict on p's counts: every
// generated op is translatable and no reader is refused, so any failed
// op or read — an identity ack included — voids the run.
func (p *Phase) Failures() error {
	if p.Failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d ops and reads failed (%d acked as identity); the workload expects none",
		p.Failed, p.Attempted, p.Identity)
}

// outcome classifies one op's fate: applied (state changed), identity,
// or failed.
func (p *Phase) outcome(d *core.Decision, err error) bool {
	switch {
	case err != nil:
		p.Failed++
		return false
	case d != nil && d.Reason == core.ReasonIdentity:
		p.Identity++
		p.Failed++
		return false
	}
	p.Acked++
	return true
}

type inflightOp struct {
	op   Op
	w    serve.Waiter
	t0   int64
	span uint64
}

// RunInProc drives n update ops from the single in-process submitter,
// keeping Spec.Window outstanding; it stops submitting early if
// obs.NowNS passes deadline (0: no deadline). Each op's latency runs
// from just before ApplyAsync to the return of its Wait; ops are waited
// on oldest first, which is also the order the group commit acks them.
func (e *Env) RunInProc(n int, deadline int64, ph *Phase, sp *Spans) {
	c := e.Clients[0]
	ring := make([]inflightOp, e.Spec.Window)
	head, size, sent := 0, 0, 0
	ctx := context.Background()
	t0 := obs.NowNS()
	ph.StartNS = t0
	for sent < n || size > 0 {
		if sent < n && deadline > 0 && obs.NowNS() > deadline {
			n = sent
		}
		if size == len(ring) || sent == n {
			f := ring[head]
			head, size = (head+1)%len(ring), size-1
			tw := obs.NowNS()
			d, err := f.w.Wait()
			t1 := obs.NowNS()
			sp.Record(SpanServeWait, f.span, tw, t1)
			sp.Fill(f.span, SpanClientSubmit, 0, f.t0, t1)
			ph.Updates = append(ph.Updates, Sample{DoneNS: t1, MS: float64(t1-f.t0) / 1e6, Ops: 1})
			if d != nil {
				ph.ChaseCalls += int64(d.ChaseCalls)
				ph.Decisions++
			}
			e.settle(f.op, ph.outcome(d, err))
			continue
		}
		op := c.Next()
		uop := e.UpdateOp(op)
		id := sp.Reserve()
		ts := obs.NowNS()
		w, err := e.Pipe.ApplyAsync(ctx, uop)
		te := obs.NowNS()
		sent++
		ph.Attempted++
		sp.Record(SpanServeApplyAsync, id, ts, te)
		ph.EnqueueUS = append(ph.EnqueueUS, float64(te-ts)/1e3)
		if err != nil {
			ph.Failed++
			sp.Fill(id, SpanClientSubmit, 0, ts, te)
			e.settle(op, false)
			continue
		}
		ring[(head+size)%len(ring)] = inflightOp{op: op, w: w, t0: ts, span: id}
		size++
	}
	ph.WallNS += obs.SinceNS(t0)
}

// ReadInProc is one full-view read as an in-process consumer does it:
// take the published view and walk its rows by name in sorted order —
// the work of the HTTP read handler short of building the response.
func (e *Env) ReadInProc(ph *Phase, sp *Spans) {
	ph.Attempted++
	t0 := obs.NowNS()
	v := e.published()
	rows, bytes := 0, 0
	if v != nil {
		for _, t := range v.Sorted(v.Attrs()) {
			for _, x := range t {
				bytes += len(e.EDM.Syms.Name(x))
			}
			rows++
		}
	}
	t1 := obs.NowNS()
	sp.Record(SpanClientRead, 0, t0, t1)
	ph.Reads = append(ph.Reads, Sample{DoneNS: t1, MS: float64(t1-t0) / 1e6})
	if rows == 0 || bytes == 0 {
		ph.Failed++
	}
}

// Recovery is one timed restart.
type Recovery struct {
	MS       float64
	Replayed int // journal records replayed
}

// recoverOnce restarts the system from its files exactly as a new
// process would — fresh symbol table, nothing carried over — checks the
// recovered view against want, and shuts the recovered system down.
func (e *Env) recoverOnce(want map[string]string, sp *Spans) (Recovery, error) {
	syms := value.NewSymbols()
	t0 := obs.NowNS()
	st, rep, err := store.Recover(e.fs, e.Pair, syms, store.Options{})
	t1 := obs.NowNS()
	if err != nil {
		return Recovery{}, fmt.Errorf("recover: %w", err)
	}
	sp.Record(SpanStoreRecover, 0, t0, t1)
	rec := Recovery{MS: float64(t1-t0) / 1e6, Replayed: rep.Replayed}
	err = e.checkView("recovered view", st.ViewRef(), syms, want)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return rec, err
}

// PadJournal brings the store's journal to padRecords records past its
// last snapshot, applying generated moves serially through a recovered
// session, so the timed recoveries all replay the same amount. Call
// after Close.
func (e *Env) PadJournal() error {
	c := e.Clients[0]
	st, rep, err := store.Recover(e.fs, e.Pair, e.EDM.Syms, store.Options{})
	if err != nil {
		return fmt.Errorf("pad: recover: %w", err)
	}
	n := (padRecords - rep.Replayed + 64) % 64
	for i := 0; i < n; i++ {
		op, ok := c.NextMove()
		if !ok {
			st.Close()
			return fmt.Errorf("pad: no idle present key")
		}
		_, err := st.Apply(e.UpdateOp(op))
		c.Ack(op, err == nil)
		if err != nil {
			st.Close()
			return fmt.Errorf("pad: %w", err)
		}
	}
	return st.Close()
}

// Timed recoveries are repeated until there are at least minRecoveries
// and recoverNS has passed, up to maxRecoveries, so store.recover_ms
// (RecoverMS) covers enough wall time that a momentary stall cannot
// move it.
const (
	minRecoveries = 11
	maxRecoveries = 300
	recoverNS     = 2_500_000_000
)

// CheckRecovered is the correctness gate on the closed system: one
// restart from its files must yield exactly the model's view.
func (e *Env) CheckRecovered() error {
	_, err := e.recoverOnce(e.Expected(), nil)
	return err
}

// Recover times repeated restarts of the closed system, each checked
// against the model and each required to replay exactly the padded
// journal.
func (e *Env) Recover(sp *Spans) ([]Recovery, error) {
	if err := e.PadJournal(); err != nil {
		return nil, err
	}
	want := e.Expected()
	var out []Recovery
	for t0 := obs.NowNS(); len(out) < maxRecoveries && (len(out) < minRecoveries || obs.SinceNS(t0) < recoverNS); {
		// Start each from the same heap state, so a collection the
		// previous one left due does not land in this one's timing.
		runtime.GC()
		r, err := e.recoverOnce(want, sp)
		if err != nil {
			return nil, err
		}
		if r.Replayed != padRecords {
			return nil, fmt.Errorf("recovery replayed %d records, want %d", r.Replayed, padRecords)
		}
		out = append(out, r)
	}
	return out, nil
}

// Replay applies the first ReplayOps acked ops, in ack order, to a fresh
// serial core.Session over the setup instance, timing each ApplyCtx, and
// checks the result against the model advanced by the same ops: the
// serial reference must agree with what the serving stack acked. Ops of
// different clients touch disjoint keys and commute, so ack order is a
// valid serial order even with concurrent clients.
func (e *Env) Replay(sp *Spans) ([]float64, error) {
	if e.InitDB == nil {
		return nil, fmt.Errorf("replay: setup kept no initial instance")
	}
	sess, err := core.NewSession(e.Pair, e.InitDB)
	if err != nil {
		return nil, err
	}
	want := make(map[string]string, len(e.Initial))
	for k, v := range e.Initial {
		want[k] = v
	}
	ctx := context.Background()
	us := make([]float64, 0, len(e.acked))
	for i, op := range e.acked {
		t0 := obs.NowNS()
		d, err := sess.ApplyCtx(ctx, e.UpdateOp(op))
		t1 := obs.NowNS()
		sp.Record(SpanCoreReplayApply, 0, t0, t1)
		us = append(us, float64(t1-t0)/1e3)
		if err != nil || d.Reason == core.ReasonIdentity {
			return nil, fmt.Errorf("replay op %d (%+v): decision %v, err %v", i, op, d, err)
		}
		ApplyOp(want, op)
	}
	return us, e.checkView("serial replay view", sess.ViewRef(), e.EDM.Syms, want)
}

// NewWorkDir makes a fresh scratch directory under root for one run.
func NewWorkDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o777); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "work-")
}

// SubDir names setup i's directory inside a run's work directory.
func SubDir(work string, i int) string { return filepath.Join(work, fmt.Sprintf("setup%d", i)) }
