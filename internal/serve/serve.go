// Package serve puts a throughput pipeline in front of a durable
// store.Session.
//
// The store session is strictly serial: each Apply decides, applies,
// journals, and fsyncs before the next op may start, so throughput is
// bounded by one fsync per op. This package keeps the serial semantics
// visible to every submitter while sharing the fsync:
//
//	submitters → bounded submit queue → committer → one write + one fsync → publish → acks
//
// One committer goroutine drains up to Options.MaxBatch waiting
// requests and applies them, in queue order, as ONE store batch
// (store.Session.ApplyOpsCtx): each op is decided and applied through
// the store session under its submitter's own context, and the batch's
// records go to the journal in one write and one fsync. Requests queued
// while the batch is being decided join it, up to MaxBatch, before it
// is journaled, so a submitter arriving mid-batch shares that fsync
// instead of waiting for the next one. A submitter's
// Apply returns only after the fsync covering its op, so per-op
// durability is unchanged; only the fsync is shared. The read side is
// handed the committed view before the acks go out, and New publishes
// the session's view before the first op, so a reader always finds a
// view and a submitter that reads after its ack sees its own op.
//
// Decide outcomes are byte-identical to a serial session processing the
// same ops in the same order, because that is what the committer is.
// Each op runs on the session's delta path (core's incremental
// decide/apply), so its cost follows the op's delta, not the instance.
//
// # Fault domains and self-healing
//
// Every error crossing the serve↔store boundary is classified transient
// or permanent (store.Classify, this package's Classify). The pipeline
// turns that taxonomy into recovery policy, organized as three fault
// domains:
//
//   - Decide domain (per op, inside a batch): a transient decide
//     failure (budget trip, injected fault) is retried in place up to
//     twice with deterministic exponential backoff capped at 64ms;
//     permanent failures (untranslatable update) reject only the
//     offending op.
//
//   - Commit domain (per batch): a failed batch breaks the store
//     session (memory ran ahead of disk). With Options.Resurrect set,
//     the committer quarantines the broken session, replays recovery
//     into a fresh one, re-verifies which acknowledged records actually
//     survived (they must — losing one latches the pipeline
//     permanently), re-journals the un-acked suffix, and resumes the
//     queue. Acked ops survive
//     byte-identically; un-acked ops are retried or rejected, never
//     silently dropped. Without Resurrect the first break latches the
//     pipeline (the legacy behavior).
//
//   - Admission domain (submitters): the submit queue is bounded.
//     Options.ShedOnFull rejects new ops with ErrShed instead of
//     blocking when it is full. Reads never enter the queue at all —
//     Published serves the last committed view lock-free, so
//     updates hold strict admission priority over reads and a healing
//     (degraded) pipeline keeps serving reads while writes wait.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
)

// ErrClosed is returned by Apply variants after Close.
var ErrClosed = errors.New("serve: pipeline closed")

// Retry policy constants: in-place retries of a transient decide
// failure (budget trip, injected fault), resurrection attempts per
// healing episode (each preceded by a backoff sleep), and the first
// rung and cap of the exponential backoff both fault domains sleep
// between attempts.
const (
	opRetries        = 2
	resurrectRetries = 4
	backoffBaseNS    = 1_000_000  // 1ms
	backoffCapNS     = 64_000_000 // 64ms
)

// Options tunes the pipeline. The zero value is ready to use.
type Options struct {
	// MaxBatch caps how many ops share one journal fsync. Default 32.
	MaxBatch int
	// QueueDepth bounds the submit queue; submitters block (or fail on
	// context cancellation) when it is full. Default 4×MaxBatch.
	QueueDepth int

	// ShedOnFull makes ApplyAsync non-blocking: a full submit queue
	// returns ErrShed immediately instead of blocking the submitter.
	ShedOnFull bool

	// Resurrect enables self-healing: when a batch breaks the store
	// session, the committer quarantines it and calls Resurrect —
	// typically a closure over store.Recover on the same FS — for a
	// fresh session continuing the same journal. Nil keeps the legacy
	// behavior: the first broken session latches the pipeline.
	Resurrect func() (*store.Session, error)

	// Seed fixes the backoff jitter streams; the same seed, workload,
	// and fault schedule reproduce identical retry timings.
	Seed uint64
	// Clock is the time source for backoff sleeps.
	// Nil means the real monotonic clock (obs.SystemClock); tests and
	// the chaos harness inject an obs.ManualClock for instant,
	// fully-deterministic schedules.
	Clock obs.Clock
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 32
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 4 * o.maxBatch()
}

func (o Options) clock() obs.Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return obs.SystemClock()
}

// Pending is one submitted op in flight through the pipeline, and the
// handle ApplyAsync returns for it: the one object a submission
// allocates. The submitter writes ctx and op before it enqueues the
// request and touches neither after; the committer writes res exactly
// once and then marks acked done, which orders that write before every
// read of res in Wait.
type Pending struct {
	ctx context.Context
	op  core.UpdateOp

	acked sync.WaitGroup
	res   result
}

// request is the committer's name for a submitted op.
type request = Pending

type result struct {
	d   *core.Decision
	err error
}

// newRequest returns a request not yet acknowledged.
func newRequest(ctx context.Context, op core.UpdateOp) *request {
	r := &request{ctx: ctx, op: op}
	r.acked.Add(1)
	return r
}

// ack delivers the op's fate to the submitter. Each request is
// acknowledged exactly once — a request is owned by a single goroutine
// at a time (submitter → committer), and ownership transfers only after
// the submitter handed it on — and acknowledging never blocks.
func (r *request) ack(res result) {
	r.res = res
	r.acked.Done()
}

// Wait blocks until the op's fate is decided and durable (or failed)
// and returns the same values a synchronous Apply would have.
func (r *Pending) Wait() (*core.Decision, error) {
	r.acked.Wait()
	return r.res.d, r.res.err
}

// publishedView is the committer's read-side handoff: the materialized
// view as of a committed sequence number, swapped in atomically after
// each batch so readers never block on (or observe) a mid-batch state.
type publishedView struct {
	view *relation.Relation
	seq  uint64
}

// Pipeline serves concurrent update submissions over one store.Session.
// The underlying session is never touched concurrently: the committer
// goroutine owns it, and submitters reach it only through the submit
// queue.
type Pipeline struct {
	// stPtr is the session currently behind the pipeline; resurrection
	// swaps it. Only the committer stores; everyone loads via store().
	stPtr atomic.Pointer[store.Session]
	opts  Options
	clock obs.Clock

	// mu serializes enqueue against Close: submitters send on submit
	// under RLock after checking closed; Close flips closed under the
	// write lock, so once Close holds it no further sends can start and
	// the quit signal finds a drainable queue.
	mu     sync.RWMutex
	closed bool

	submit chan *request
	quit   chan struct{}
	done   chan struct{} // closed when the committer exits

	// broken latches the first unhealable error; later submissions fail
	// fast while the pipeline keeps draining so Close can finish.
	broken atomic.Pointer[brokenState]

	// degraded is true while the store is healing (or latched broken):
	// writes queue or fail, Published keeps serving the last published
	// view.
	degraded atomic.Bool

	// pubView is the read side's view: published by New, then after
	// every committed batch and resurrection. Never nil.
	pubView atomic.Pointer[publishedView]

	// decBackoff paces decide-domain retries; healBackoff paces
	// resurrection attempts. Both belong to the committer; decorrelated
	// seeds keep the two jitter streams independent.
	decBackoff  *backoff
	healBackoff *backoff
}

type brokenState struct{ err error }

// New publishes st's current view, then starts the pipeline's
// committer goroutine over st. The caller must not use st directly
// until Close returns — and after a
// resurrection st is dead; use Store for the live session. The error
// is always nil; it is kept for callers that check it.
func New(st *store.Session, opts Options) (*Pipeline, error) {
	p := &Pipeline{
		opts:        opts,
		clock:       opts.clock(),
		submit:      make(chan *request, opts.queueDepth()),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		decBackoff:  newBackoff(opts.Seed),
		healBackoff: newBackoff(opts.Seed ^ 0x9e3779b97f4a7c15),
	}
	p.stPtr.Store(st)
	p.publishView(st)
	//constvet:allow rawgo -- the committer goroutine IS the pipeline's concurrency design: it owns the real session and serializes durability
	go p.committer()
	return p, nil
}

// store returns the live session (it changes across resurrections).
func (p *Pipeline) store() *store.Session { return p.stPtr.Load() }

// Store exposes the session currently behind the pipeline: after a
// resurrection the session New was given is quarantined and this is the
// only valid handle. Call it for read-style access (Database, View,
// Seq) after Close, or between operations; using it to Apply while the
// pipeline runs violates the single-writer discipline.
func (p *Pipeline) Store() *store.Session { return p.store() }

// Degraded reports whether the pipeline is in read-only degraded mode:
// the store is healing (or latched broken), and Published keeps serving
// the last committed view while writes wait or fail.
func (p *Pipeline) Degraded() bool { return p.degraded.Load() }

// Published returns the most recently committed view, the store
// sequence number it is current as of, and whether the pipeline is
// degraded. The view is never nil: New publishes the session's view
// before the first op, and every commit publishes before it acks, so a
// submitter that reads after its ack sees its own op. Reads never enter
// the submit queue — admission control applies to updates only — so
// Published stays available, and lock-free, throughout overload and
// healing. The network front-end uses the seq to stamp read responses
// so a client can correlate a read with the acks it has seen.
func (p *Pipeline) Published() (*relation.Relation, uint64, bool) {
	degraded := p.degraded.Load()
	if degraded {
		if m := svmetrics.Load(); m != nil {
			m.degradedReads.Inc()
		}
	}
	pv := p.pubView.Load()
	return pv.view, pv.seq, degraded
}

// publishView hands the session's view to the read side. Committer
// goroutine only, or New before the committer starts. The published
// relation is the session's one maintained view image
// (core.Session.ViewRef), so a publish never re-projects the database,
// and the ref stays immutable — the session clones its image before
// the next op changes it. Past
// 2048 rows that clone shares the image's storage copy-on-write
// (relation.Relation.Clone), so a batch costs O(|batch|), not O(|view|).
func (p *Pipeline) publishView(st *store.Session) {
	p.pubView.Store(&publishedView{view: st.ViewRef(), seq: st.Seq()})
}

func (p *Pipeline) brokenErr() error {
	if b := p.broken.Load(); b != nil {
		return b.err
	}
	return nil
}

// Apply submits one op and blocks until it is decided and durable.
func (p *Pipeline) Apply(op core.UpdateOp) (*core.Decision, error) {
	return p.ApplyCtx(context.Background(), op)
}

// ApplyCtx is Apply with a context bounding the queue wait and the
// op's decide. Once the op is applied in memory its record is journaled
// with the rest of its batch regardless of ctx: its durability is
// shared with the batch.
func (p *Pipeline) ApplyCtx(ctx context.Context, op core.UpdateOp) (*core.Decision, error) {
	pend, err := p.ApplyAsync(ctx, op)
	if err != nil {
		return nil, err
	}
	return pend.Wait()
}

// ApplyAsync enqueues op and returns immediately with a Pending handle;
// submitting a window of ops before waiting is how a single client gets
// group commit (ops waiting together share an fsync). The returned
// error is non-nil only when the op was never enqueued; with
// Options.ShedOnFull a saturated queue returns ErrShed instead of
// blocking.
func (p *Pipeline) ApplyAsync(ctx context.Context, op core.UpdateOp) (*Pending, error) {
	if err := p.brokenErr(); err != nil {
		return nil, fmt.Errorf("%w: %w", store.ErrSessionBroken, err)
	}
	r := newRequest(ctx, op)
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrClosed
	}
	if p.opts.ShedOnFull {
		// Bounded admission: never block the submitter, shed instead.
		select {
		case p.submit <- r:
			p.mu.RUnlock()
			if m := svmetrics.Load(); m != nil {
				m.submitted.Inc()
			}
			return r, nil
		default:
			p.mu.RUnlock()
			if m := svmetrics.Load(); m != nil {
				m.shed.Inc()
			}
			return nil, ErrShed
		}
	}
	// Block in the send holding the read lock. The committer drains the
	// queue continuously (it stops only after quit, which Close signals
	// only once it gets the write lock — i.e. after this send finishes),
	// so a full queue delays Close, it cannot deadlock it.
	//constvet:allow lockhold -- RLock only fences Close; the committer drains submit without touching mu, so the send makes progress while readers hold the lock
	select {
	case p.submit <- r:
		p.mu.RUnlock()
		if m := svmetrics.Load(); m != nil {
			m.submitted.Inc()
		}
		return r, nil
	case <-ctx.Done():
		p.mu.RUnlock()
		return nil, ctx.Err()
	}
}

// Waiter is the part of Pending a caller needs to await an op's fate.
// Code that only waits, such as a client's window of in-flight
// submissions, holds Waiters rather than *Pending.
type Waiter interface {
	Wait() (*core.Decision, error)
}

// Close stops accepting submissions, drains every op already accepted
// (each still gets its decided-and-durable acknowledgement), shuts the
// committer down, and returns the broken-session error if the store
// failed unhealably along the way. It does not close the store session.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		close(p.quit)
	}
	<-p.done
	return p.brokenErr()
}

// committer is the pipeline's single worker: it drains up to MaxBatch
// waiting requests at a time and commits them in queue order, one
// journal write and one fsync per batch. Submitters are acknowledged
// only after that fsync.
func (p *Pipeline) committer() {
	defer close(p.done)
	for {
		var first *request
		select {
		case first = <-p.submit:
		case <-p.quit:
			// closed was set before quit, and every in-flight send
			// finished before Close could take the write lock — the
			// queue can only shrink now. Drain it, then stop.
			select {
			case first = <-p.submit:
			default:
				return
			}
		}
		reqs := []*request{first}
	fill:
		for len(reqs) < p.opts.maxBatch() {
			select {
			case r := <-p.submit:
				reqs = append(reqs, r)
			default:
				break fill
			}
		}
		if m := svmetrics.Load(); m != nil {
			m.queueDepth.Observe(float64(len(p.submit)))
		}
		p.process(reqs)
	}
}

// process admits the drained requests in queue order and commits them
// as one batch, which requests arriving meanwhile may join.
func (p *Pipeline) process(reqs []*request) {
	live := reqs[:0]
	for _, r := range reqs {
		if p.admit(r) {
			live = append(live, r)
		}
	}
	p.commitBatch(live)
}

// admit reports whether a request taken off the queue goes on to be
// committed. It fails the request fast on a latched pipeline or if it
// was cancelled while queued; either way it is acknowledged here.
func (p *Pipeline) admit(r *request) bool {
	if err := p.brokenErr(); err != nil {
		r.ack(result{err: fmt.Errorf("%w: %w", store.ErrSessionBroken, err)})
		return false
	}
	if err := r.ctx.Err(); err != nil {
		// Cancelled while queued: never reached the store, exactly as a
		// serial ApplyCtx would have failed before deciding.
		r.ack(result{err: err})
		return false
	}
	return true
}

// join takes the next queued request into the batch being filled, if
// one is already waiting and the batch (n members so far) has room: an
// op that arrives while its predecessors are being decided shares their
// write and fsync instead of waiting a whole batch for the next one. It
// acknowledges the requests admit turns away and never waits; nil
// closes the batch.
func (p *Pipeline) join(n int) *request {
	for n < p.opts.maxBatch() {
		select {
		case r := <-p.submit:
			if p.admit(r) {
				return r
			}
		default:
			return nil
		}
	}
	return nil
}

// commitBatch decides, applies and journals reqs as one store batch —
// one write, one fsync — each op under its submitter's context, with
// transient decide failures retried in place. Requests queued by the
// time reqs are applied join the batch (join) before it is journaled.
// Committer goroutine only.
func (p *Pipeline) commitBatch(reqs []*request) {
	if len(reqs) == 0 {
		return
	}
	st := p.store()
	next := func(i int) (store.BatchOp, bool) {
		if i == len(reqs) {
			r := p.join(i)
			if r == nil {
				return store.BatchOp{}, false
			}
			reqs = append(reqs, r)
		}
		return store.BatchOp{Ctx: reqs[i].ctx, Op: reqs[i].op}, true
	}
	// seq0 anchors loss accounting for the commit fault domain: after a
	// resurrection, recovered seq − seq0 tells exactly how many of this
	// batch's applied records made it to durable storage.
	seq0 := st.Seq()
	items, err := st.ApplyOpsCtx(next, func(i, attempt int, err error) bool {
		return p.retryDecide(reqs[i], attempt, err)
	})
	if err != nil {
		if p.opts.Resurrect == nil {
			p.latch(reqs, items, err)
			return
		}
		p.heal(st, reqs, items, seq0, err)
		return
	}
	if m := svmetrics.Load(); m != nil {
		m.batches.Inc()
		m.committed.Add(int64(len(reqs)))
		m.batchRecords.Observe(float64(len(reqs)))
	}
	// Publish before acknowledging: a submitter that reads after its
	// ack sees its own op.
	p.publishView(st)
	for i, r := range reqs {
		r.ack(result{d: items[i].Decision, err: items[i].Err})
	}
}

// retryDecide is the decide domain's recovery policy: a transient
// failure (budget trip, injected fault) of r's decide is retried in
// place, after a deterministic backoff, up to opRetries times while r's
// context lives. A failed decide never touched the session, so the
// retry re-decides from exactly the state a serial session would see.
func (p *Pipeline) retryDecide(r *request, attempt int, err error) bool {
	if attempt >= opRetries || r.ctx.Err() != nil || classify(err) != store.ClassTransient {
		return false
	}
	if attempt == 0 {
		p.decBackoff.reset() // each op's schedule starts at the first rung
	}
	m := svmetrics.Load()
	if m != nil {
		m.retries.Inc()
	}
	t0 := p.clock.NowNS()
	p.clock.Sleep(p.decBackoff.next())
	if m != nil {
		m.retryLatency.ObserveDuration(p.clock.NowNS() - t0)
	}
	return true
}

// latch records the pipeline's terminal error and fails a batch's
// submitters the way the pre-healing pipeline did: an op with a clean
// item was applied in memory but its durability is indeterminate.
func (p *Pipeline) latch(reqs []*request, items []store.BatchItem, err error) {
	p.broken.CompareAndSwap(nil, &brokenState{err: err})
	p.degraded.Store(true)
	for i, r := range reqs {
		if i < len(items) {
			r.ack(result{d: items[i].Decision, err: batchItemErr(items[i], err)})
		} else {
			r.ack(result{err: err})
		}
	}
}

// heal is the commit domain's recovery policy: quarantine the broken
// session, resurrect from durable state, reconcile the failed batch
// against what actually survived, and resume. Committer goroutine only.
//
// The reconciliation invariant: reqs[i] aligns with items[i] for
// i < len(items); items with Err == nil were applied in memory and
// journaled in order, so exactly the first (recovered seq − seq0) of
// them are durable — those are acknowledged with their original
// decisions, byte-identically. Everything else is re-journaled on the
// fresh session (transient per-op errors and never-attempted ops
// included) or rejected (permanent per-op errors). A recovered seq
// below seq0 means an *acknowledged* op from an earlier batch is gone:
// that is unhealable data loss and latches the pipeline.
func (p *Pipeline) heal(st *store.Session, reqs []*request, items []store.BatchItem, seq0 uint64, batchErr error) {
	m := svmetrics.Load()
	p.degraded.Store(true)
	// Quarantine: the broken session never serves again; Close releases
	// its journal handle so the resurrected session can reopen the file.
	// Its own close error is unreachable state — the batch error is the
	// one that matters.
	_ = st.Close()
	for attempt := 0; attempt < resurrectRetries; attempt++ {
		if store.Classify(batchErr) == store.ClassPermanent {
			break // resurrection cannot cure a permanent cause
		}
		p.clock.Sleep(p.healBackoff.next())
		ns, rerr := p.opts.Resurrect()
		if rerr != nil {
			if store.Classify(rerr) == store.ClassPermanent {
				batchErr = rerr
				break
			}
			continue
		}
		if m != nil {
			m.resurrections.Inc()
		}
		newSeq := ns.Seq()
		if newSeq < seq0 {
			_ = ns.Close()
			batchErr = fmt.Errorf("%w: resurrection lost acknowledged ops (recovered seq %d < pre-batch seq %d)",
				store.ErrSessionBroken, newSeq, seq0)
			break
		}
		durable := int(newSeq - seq0)
		var retry []*request
		var kept []int // reqs on disk, replayed, re-verified
		applied := 0
		for i, r := range reqs {
			if i >= len(items) {
				retry = append(retry, r) // never attempted by the failed batch
				continue
			}
			it := items[i]
			if it.Err == nil {
				applied++
				if applied <= durable {
					kept = append(kept, i)
				} else {
					retry = append(retry, r)
				}
				continue
			}
			if classify(it.Err) == store.ClassTransient {
				retry = append(retry, r)
			} else {
				// Permanent per-op failure (rejection, illegal update):
				// reject only this op, the rest of the batch lives on.
				r.ack(result{d: it.Decision, err: it.Err})
			}
		}
		// Acknowledge the kept ops with the decisions the failed batch
		// computed — once the view that holds them is published, as a
		// committed batch does.
		ackKept := func() {
			for _, i := range kept {
				reqs[i].ack(result{d: items[i].Decision})
			}
		}
		p.stPtr.Store(ns)
		if len(retry) == 0 {
			p.healed(ns)
			ackKept()
			return
		}
		// Re-journal and re-fsync the un-acked suffix on the fresh
		// session. context.Background(): these ops already reached the
		// journal phase once, and their fate is shared with the batch.
		if m != nil {
			m.retries.Add(int64(len(retry)))
		}
		rops := make([]store.BatchOp, len(retry))
		for i, r := range retry {
			rops[i] = store.BatchOp{Ctx: context.Background(), Op: r.op}
		}
		seq0 = ns.Seq()
		items2, err2 := ns.ApplyOpsCtx(store.Ops(rops), nil)
		if err2 == nil {
			if m != nil {
				m.batches.Inc()
				m.committed.Add(int64(len(retry)))
				m.batchRecords.Observe(float64(len(retry)))
			}
			p.healed(ns)
			ackKept()
			for i, r := range retry {
				r.ack(result{d: items2[i].Decision, err: items2[i].Err})
			}
			return
		}
		// The retry batch broke the fresh session too: the kept ops are
		// durable regardless, so acknowledge them; quarantine the session
		// and keep healing with whatever is still unacknowledged.
		ackKept()
		_ = ns.Close()
		reqs, items, batchErr = retry, items2, err2
	}
	// Healing exhausted or the cause is permanent: latch, fail every
	// submitter still waiting. The pipeline stays up in degraded mode,
	// serving the last published view read-only.
	p.latch(reqs, items, batchErr)
}

// healed closes a successful healing episode: the fresh session is
// live, backoff rewinds for the next episode, and readers get the
// recovered view.
func (p *Pipeline) healed(ns *store.Session) {
	p.healBackoff.reset()
	p.degraded.Store(false)
	p.publishView(ns)
}

// batchItemErr reports the per-op error to surface when the batch call
// itself failed: an op with a clean item was applied in memory but its
// durability is indeterminate, which is exactly ErrSessionBroken.
func batchItemErr(it store.BatchItem, batchErr error) error {
	if it.Err != nil {
		return it.Err
	}
	return batchErr
}
