package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// Options configures a sharded multi-store.
type Options struct {
	// Shards is K, the shard count. 0 means len(fss) as passed to Open.
	// K is static for the life of the instance: the hash ring is part of
	// the on-disk layout, so reopening with a different K misplaces
	// every tuple.
	Shards int
	// Key names the view attribute that routes ops. Empty picks the
	// first view attribute. It must be a view attribute: ops carry view
	// tuples, and routing must be decidable from the op alone.
	Key string
	// Store configures each shard's store.Session.
	Store store.Options
	// Serve configures each shard's pipeline. The Resurrect hook is
	// overwritten per shard (recovery must target the shard's own FS).
	Serve serve.Options
	// CommitRetries caps Sync retries for a commit record whose first
	// fsync failed (durability indeterminate). Default 3.
	CommitRetries int
}

func (o Options) commitRetries() int {
	if o.CommitRetries > 0 {
		return o.CommitRetries
	}
	return 3
}

// ShardStatus is one shard's externally visible health.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	Seq      uint64 `json:"seq"`
	Degraded bool   `json:"degraded"`
}

// Resolution records how Open settled one in-doubt cross-shard intent.
type Resolution struct {
	Xid       uint64
	Committed bool
	// RedoneCoord/RedonePart report whether the delete/insert half was
	// re-applied (false when the half already survived in the shard's
	// journal, or for an aborted xid).
	RedoneCoord bool
	RedonePart  bool
	Old, New    []string
}

// Report is Open's account of what recovery found: each shard's store
// recovery report (nil for shards created fresh) and every cross-shard
// intent resolved from the txlogs.
type Report struct {
	Shards   []*store.RecoveryReport
	Resolved []Resolution
}

type shardState struct {
	fsys store.FS
	pipe *serve.Pipeline
	tx   *TxLog
}

// Multi fronts K independent store shards with a placement table.
// Single-shard ops — everything except a replacement that moves a key
// between shards — forward straight to the owning shard's pipeline,
// untouched. Cross-shard replacements run an eager two-phase commit
// under m.xmu: exclusive grants on both pipelines, both halves decided,
// an intent record fsynced on participant then coordinator, a commit
// record fsynced on the coordinator (the commit point), the halves
// applied and journaled per shard, and the txlogs durably reset.
// Running the protocol eagerly inside ApplyAsync keeps each shard's
// apply order equal to global submission order for a serial submitter —
// the property the chaos oracle replays against.
type Multi struct {
	router *Router
	pair   *core.Pair
	syms   *value.Symbols
	opts   Options
	clock  obs.Clock
	shards []*shardState

	// xsem serializes cross-shard commits — at most one xid is in
	// flight per txlog, so a truncate-to-zero reset can never clip a
	// neighbor. It is a one-token channel rather than a mutex on
	// purpose: the holder blocks on fsyncs for the whole protocol,
	// which the serve stack's lock discipline (lockhold) forbids under
	// a sync.Mutex, and the channel lets acquisition honor ctx.
	xsem    chan struct{}
	nextXid uint64 // guarded by xsem ownership

	closeOnce sync.Once
	closeErr  error
}

// Open builds (or reopens) a sharded instance over one FS per shard.
// db is the full base instance, used only when a shard has no durable
// state yet: it is hash-partitioned by the key attribute and each slice
// seeds its shard's store. Existing shards recover from their own
// journal and snapshot; then every txlog is scanned and in-doubt
// cross-shard intents are resolved — an intent is committed iff the
// coordinator shard's txlog holds a durable commit record for its xid,
// in which case any half missing from its shard's journal is redone
// (guarded by view membership, so resolution is idempotent across
// crashes during recovery); anything less reads as an abort. Finally
// the txlogs are durably reset, so no intent survives a recovery.
func Open(fss []store.FS, pair *core.Pair, db *relation.Relation, syms *value.Symbols, opts Options) (*Multi, *Report, error) {
	k := opts.Shards
	if k == 0 {
		k = len(fss)
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("shard: need at least 1 shard, got %d", k)
	}
	if len(fss) != k {
		return nil, nil, fmt.Errorf("shard: %d filesystems for %d shards", len(fss), k)
	}
	if db == nil {
		return nil, nil, fmt.Errorf("shard: nil base instance")
	}
	u := pair.Schema().Universe()
	viewIDs := pair.ViewAttrs().IDs()
	keyName := opts.Key
	if keyName == "" {
		keyName = u.Name(viewIDs[0])
	}
	keyID, ok := u.Lookup(keyName)
	if !ok || !pair.ViewAttrs().Has(keyID) {
		return nil, nil, fmt.Errorf("shard: key attribute %q is not a view attribute", keyName)
	}
	keyCol := -1
	for i, id := range viewIDs {
		if id == keyID {
			keyCol = i
		}
	}
	router, err := NewRouter(k, keyCol, syms)
	if err != nil {
		return nil, nil, err
	}

	m := &Multi{
		router: router,
		pair:   pair,
		syms:   syms,
		opts:   opts,
		clock:  opts.Serve.Clock,
		shards: make([]*shardState, k),
		xsem:   make(chan struct{}, 1),
	}
	if m.clock == nil {
		m.clock = obs.SystemClock()
	}

	// Hash-partition the seed instance by the key attribute's column in
	// base tuples (the same constant the view key column carries, so
	// base and view placement agree).
	baseCol := db.Col(keyID)
	if baseCol < 0 {
		return nil, nil, fmt.Errorf("shard: key attribute %q missing from base instance", keyName)
	}
	parts := make([]*relation.Relation, k)
	for i := range parts {
		parts[i] = relation.New(db.Attrs())
	}
	for _, t := range db.Tuples() {
		parts[router.ShardOfName(syms.Name(t[baseCol]))].Insert(t)
	}

	rep := &Report{Shards: make([]*store.RecoveryReport, k)}
	sessions := make([]*store.Session, k)
	scans := make([]TxScan, k)
	for i := 0; i < k; i++ {
		st, r, err := store.Open(fss[i], pair, parts[i], syms, opts.Store)
		if err != nil {
			closeAll(sessions[:i])
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sessions[i] = st
		rep.Shards[i] = r
		if scans[i], err = ReadTxLog(fss[i]); err != nil {
			closeAll(sessions[:i+1])
			return nil, nil, fmt.Errorf("shard %d txlog: %w", i, err)
		}
	}

	if err := m.resolve(sessions, scans, rep); err != nil {
		closeAll(sessions)
		return nil, nil, err
	}

	// The resolved halves are durable in their shards' journals, so the
	// intents have served their purpose: start every txlog empty.
	for i := 0; i < k; i++ {
		tx, err := createTxLog(fss[i])
		if err == nil {
			err = fss[i].SyncDir()
		}
		if err != nil {
			closeAll(sessions)
			return nil, nil, fmt.Errorf("shard %d txlog reset: %w", i, err)
		}
		m.shards[i] = &shardState{fsys: fss[i], tx: tx}
	}

	for i := 0; i < k; i++ {
		sv := opts.Serve
		shardFS, shardStore := fss[i], opts.Store
		sv.Resurrect = func() (*store.Session, error) {
			st, _, err := store.Recover(shardFS, pair, syms, shardStore)
			return st, err
		}
		pipe, err := serve.New(sessions[i], sv)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = m.shards[j].pipe.Close()
			}
			closeAll(sessions)
			return nil, nil, fmt.Errorf("shard %d pipeline: %w", i, err)
		}
		m.shards[i].pipe = pipe
	}
	return m, rep, nil
}

func closeAll(sessions []*store.Session) {
	for _, st := range sessions {
		if st != nil {
			_ = st.Close()
		}
	}
}

// resolve settles every in-doubt intent found in the txlog scans
// against the freshly recovered sessions. Presumed abort: an intent is
// committed iff its coordinator's txlog holds a durable commit record.
func (m *Multi) resolve(sessions []*store.Session, scans []TxScan, rep *Report) error {
	k := len(sessions)
	intents := make(map[uint64]TxRecord)
	done := make([]map[uint64]bool, k)
	for i, scan := range scans {
		done[i] = make(map[uint64]bool)
		for _, r := range scan.Records {
			switch r.Kind {
			case txIntent:
				if r.Coord < 0 || r.Coord >= k || r.Part < 0 || r.Part >= k {
					return fmt.Errorf("shard %d txlog: intent xid %d names shard out of range (coord %d, part %d, K=%d)",
						i, r.Xid, r.Coord, r.Part, k)
				}
				intents[r.Xid] = r
			case txDone:
				done[i][r.Xid] = true
			}
		}
	}
	xids := make([]uint64, 0, len(intents))
	for xid := range intents {
		xids = append(xids, xid)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })
	for _, xid := range xids {
		rec := intents[xid]
		res := Resolution{Xid: xid, Old: rec.Old, New: rec.New}
		// The commit record only counts on the coordinator's own log.
		if commitOn(scans[rec.Coord], xid) {
			res.Committed = true
			old, err := m.tupleOf(rec.Old)
			if err != nil {
				return fmt.Errorf("shard: xid %d intent: %w", xid, err)
			}
			nw, err := m.tupleOf(rec.New)
			if err != nil {
				return fmt.Errorf("shard: xid %d intent: %w", xid, err)
			}
			// Redo each half that is missing from its shard's state.
			// Idempotent across crashes during recovery: a redone half
			// is journaled and fsynced by Apply, so the next recovery's
			// guard sees it present and skips.
			if !done[rec.Coord][xid] && sessions[rec.Coord].ViewRef().Contains(old) {
				if _, err := sessions[rec.Coord].Apply(core.Delete(old)); err != nil {
					return fmt.Errorf("shard %d: redo delete half of xid %d: %w", rec.Coord, xid, err)
				}
				res.RedoneCoord = true
			}
			if !done[rec.Part][xid] && !sessions[rec.Part].ViewRef().Contains(nw) {
				if _, err := sessions[rec.Part].Apply(core.Insert(nw)); err != nil {
					return fmt.Errorf("shard %d: redo insert half of xid %d: %w", rec.Part, xid, err)
				}
				res.RedonePart = true
			}
		}
		rep.Resolved = append(rep.Resolved, res)
	}
	return nil
}

func commitOn(scan TxScan, xid uint64) bool {
	for _, r := range scan.Records {
		if r.Kind == txCommit && r.Xid == xid {
			return true
		}
	}
	return false
}

func (m *Multi) tupleOf(names []string) (relation.Tuple, error) {
	if len(names) != m.pair.ViewAttrs().Len() {
		return nil, fmt.Errorf("tuple arity %d, view arity %d", len(names), m.pair.ViewAttrs().Len())
	}
	t := make(relation.Tuple, len(names))
	for i, n := range names {
		t[i] = m.syms.Const(n)
	}
	return t, nil
}

func (m *Multi) namesOf(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = m.syms.Name(v)
	}
	return out
}

// Router exposes the placement table (clients use it to pre-compute key
// placement; tests use it to build cross-shard workloads).
func (m *Multi) Router() *Router { return m.router }

// Pair returns the view/complement pair every shard serves.
func (m *Multi) Pair() *core.Pair { return m.pair }

// Shards returns K.
func (m *Multi) Shards() int { return len(m.shards) }

// CrossPending is the Waiter for a cross-shard op. The two-phase commit
// runs eagerly inside ApplyAsync — by return the op's fate is sealed —
// so Wait never blocks; the type exists so callers can treat single-
// and cross-shard submissions uniformly (and so tests can read the
// Xid back).
type CrossPending struct {
	xid uint64
	d   *core.Decision
	err error
}

// Wait returns the op's fate, already resolved.
func (p *CrossPending) Wait() (*core.Decision, error) { return p.d, p.err }

// Xid returns the op's transaction id, matching the intent records on
// the participating shards' txlogs (and Open's Resolution entries).
func (p *CrossPending) Xid() uint64 { return p.xid }

// ApplyAsync routes op. Single-shard ops — everything whose placement
// is one shard — forward to that shard's pipeline and return its
// Pending untouched: the fast path is exactly the unsharded pipeline.
// Cross-shard replacements run the two-phase commit before returning.
func (m *Multi) ApplyAsync(ctx context.Context, op core.UpdateOp) (serve.Waiter, error) {
	coord, part, cross := m.router.Placement(op)
	if !cross {
		p, err := m.shards[coord].pipe.ApplyAsync(ctx, op)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	return m.applyCross(ctx, op, coord, part)
}

// Apply is the synchronous convenience: submit and wait.
func (m *Multi) Apply(ctx context.Context, op core.UpdateOp) (*core.Decision, error) {
	w, err := m.ApplyAsync(ctx, op)
	if err != nil {
		return nil, err
	}
	return w.Wait()
}

// applyCross runs the two-phase commit for a replacement whose old and
// new tuples key onto different shards. The op decomposes into a
// delete half on the coordinator (the old tuple's shard) and an insert
// half on the participant, each independently subject to its shard's
// constant-complement translation; either half rejecting rejects the
// whole op with nothing written anywhere.
func (m *Multi) applyCross(ctx context.Context, op core.UpdateOp, coord, part int) (*CrossPending, error) {
	select {
	case m.xsem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-m.xsem }()
	m.nextXid++
	pend := &CrossPending{xid: m.nextXid}

	// Exclusive grants in shard-index order (a fixed global order, so
	// two lock holders can never deadlock if this ever runs unserialized).
	lo, hi := coord, part
	if hi < lo {
		lo, hi = hi, lo
	}
	gLo, err := m.shards[lo].pipe.Exclusive(ctx)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", lo, err)
	}
	gHi, err := m.shards[hi].pipe.Exclusive(ctx)
	if err != nil {
		gLo.Release(nil)
		return nil, fmt.Errorf("shard %d: %w", hi, err)
	}
	gC, gP := gLo, gHi
	if coord != lo {
		gC, gP = gHi, gLo
	}
	abort := func(d *core.Decision, err error) *CrossPending {
		gC.Release(nil)
		gP.Release(nil)
		pend.d, pend.err = d, err
		return pend
	}

	// Decide both halves before writing anything: a rejection aborts
	// the whole op with zero bytes spent (decide-before-intent).
	del, ins := core.Delete(op.Tuple), core.Insert(op.With)
	dDel, err := gC.Session().DecideCtx(ctx, del)
	if err != nil {
		return abort(dDel, fmt.Errorf("shard %d delete half: %w", coord, err)), nil
	}
	dIns, err := gP.Session().DecideCtx(ctx, ins)
	if err != nil {
		return abort(dIns, fmt.Errorf("shard %d insert half: %w", part, err)), nil
	}
	if !dDel.Translatable {
		return abort(dDel, fmt.Errorf("shard %d delete half: %w: %s", coord, core.ErrRejected, dDel.Reason)), nil
	}
	if !dIns.Translatable {
		return abort(dIns, fmt.Errorf("shard %d insert half: %w: %s", part, core.ErrRejected, dIns.Reason)), nil
	}
	if dDel.Reason == core.ReasonIdentity && dIns.Reason == core.ReasonIdentity {
		// Neither shard changes: the whole op is an identity.
		return abort(&core.Decision{Translatable: true, Reason: core.ReasonIdentity,
			ChaseCalls: dDel.ChaseCalls + dIns.ChaseCalls}, nil), nil
	}

	// Phase one: the intent, fsynced on the participant then the
	// coordinator. Any failure here is a safe abort — without a durable
	// commit record recovery presumes abort — but reset what we can so
	// no stray intent lingers (harmless, since aborts never redo).
	rec := TxRecord{Xid: pend.xid, Kind: txIntent, Coord: coord, Part: part,
		Old: m.namesOf(op.Tuple), New: m.namesOf(op.With)}
	if err := m.shards[part].tx.AppendIntent(rec); err != nil {
		_ = m.shards[part].tx.Reset()
		return abort(nil, fmt.Errorf("shard %d intent: %w", part, err)), nil
	}
	if err := m.shards[coord].tx.AppendIntent(rec); err != nil {
		_ = m.shards[coord].tx.Reset()
		_ = m.shards[part].tx.Reset()
		return abort(nil, fmt.Errorf("shard %d intent: %w", coord, err)), nil
	}

	// Phase two: the commit record on the coordinator — the commit
	// point of the protocol.
	if err := m.shards[coord].tx.AppendCommit(pend.xid); err != nil {
		if errors.Is(err, ErrTxIndeterminate) {
			err = m.retrySync(coord, err)
		}
		if err == nil {
			// A Sync retry landed the record after all: committed.
		} else if !errors.Is(err, ErrTxIndeterminate) {
			// The record is certainly absent: safe abort.
			_ = m.shards[coord].tx.Reset()
			_ = m.shards[part].tx.Reset()
			return abort(nil, fmt.Errorf("shard %d commit record: %w", coord, err)), nil
		} else if rerr := m.shards[coord].tx.Reset(); rerr == nil {
			// The record may or may not be durable — demote it to a
			// durable abort by truncating it away.
			_ = m.shards[part].tx.Reset()
			return abort(nil, fmt.Errorf("shard %d commit record: %w", coord, err)), nil
		} else {
			// Sync retries exhausted and the truncate failed: the
			// outcome is genuinely in doubt. Any further op on either
			// shard could collide with what the next recovery's
			// resolution redoes, so fence both until then.
			ferr := fmt.Errorf("shard: xid %d commit in doubt: %w (reset: %v)", pend.xid, err, rerr)
			gC.Abandon(ferr)
			gP.Abandon(ferr)
			pend.err = ferr
			return pend, nil
		}
	}

	// Committed. Apply the halves; each Apply journals and fsyncs on
	// its own shard. A broken session is resurrected in place and the
	// half redone if its record did not survive — and if that fails,
	// the shard is fenced (recovery's resolution will finish the job).
	dDel, nsC, errC := m.applyHalf(gC, coord, del)
	if errC != nil {
		ferr := fmt.Errorf("shard: xid %d committed, delete half failed on shard %d: %w", pend.xid, coord, errC)
		gC.Abandon(ferr)
		gP.Abandon(ferr)
		pend.err = ferr
		return pend, nil
	}
	dIns, nsP, errP := m.applyHalf(gP, part, ins)
	if errP != nil {
		ferr := fmt.Errorf("shard: xid %d committed, insert half failed on shard %d: %w", pend.xid, part, errP)
		gC.Abandon(ferr)
		gP.Abandon(ferr)
		pend.err = ferr
		return pend, nil
	}

	// Both halves durable in their journals: durably retire the
	// records, coordinator first — a crash between the two resets
	// leaves only the participant's intent, which reads as an abort and
	// redoes nothing (the halves are already applied).
	if err := m.shards[coord].tx.Reset(); err != nil {
		// intent+commit survive; a later recovery would redo against
		// whatever state traffic has moved on to. Fence both shards.
		ferr := fmt.Errorf("shard: xid %d applied but txlog retire failed: %w", pend.xid, err)
		gC.Abandon(ferr)
		gP.Abandon(ferr)
		pend.err = ferr
		return pend, nil
	}
	_ = m.shards[part].tx.Reset() // leftover participant intent reads as abort: harmless

	gC.Release(nsC)
	gP.Release(nsP)
	pend.d = &core.Decision{Translatable: true, Reason: core.ReasonOK,
		ChaseCalls: dDel.ChaseCalls + dIns.ChaseCalls}
	return pend, nil
}

// backoff sleeps before retry attempt (0-based): Serve.BackoffBaseNS,
// or 1ms, doubled per attempt.
func (m *Multi) backoff(attempt int) {
	base := m.opts.Serve.BackoffBaseNS
	if base <= 0 {
		base = 1_000_000
	}
	m.clock.Sleep(base << uint(attempt))
}

// retrySync retries the coordinator txlog fsync for an indeterminate
// commit record with exponential backoff.
func (m *Multi) retrySync(k int, err error) error {
	for attempt := 0; attempt < m.opts.commitRetries(); attempt++ {
		m.backoff(attempt)
		if serr := m.shards[k].tx.Sync(); serr == nil {
			return nil
		} else {
			err = fmt.Errorf("%w: %v", ErrTxIndeterminate, serr)
		}
	}
	return err
}

// applyHalf applies one half of a committed cross-shard op through the
// grant's session. If the apply breaks the session (journal fault —
// memory ran ahead of disk), it quarantines the session, recovers a
// fresh one from the shard's durable state, and redoes the half only
// if its record did not survive, deciding by sequence number: under
// exclusivity this half is the only op in flight, so the record
// survived iff the recovered seq advanced past the pre-apply seq. The
// returned session (nil when the original survived) must be handed to
// Release so the pipeline adopts it.
func (m *Multi) applyHalf(g *serve.ExclusiveGrant, k int, op core.UpdateOp) (*core.Decision, *store.Session, error) {
	st := g.Session()
	seq0 := st.Seq()
	d, err := st.Apply(op)
	if err == nil {
		return d, nil, nil
	}
	if !errors.Is(err, store.ErrSessionBroken) {
		// A rejection or budget trip cannot happen — the half was
		// decided translatable against this exact state under
		// exclusivity — so any non-breaking error is a fault to surface.
		return d, nil, err
	}
	_ = st.Close()
	lastErr := err
	for attempt := 0; attempt < 4; attempt++ {
		m.backoff(attempt)
		ns, rerr := m.recoverShard(k)
		if rerr != nil {
			lastErr = rerr
			if store.Classify(rerr) == store.ClassPermanent {
				break
			}
			continue
		}
		if ns.Seq() > seq0 {
			return d, ns, nil // the half's record survived the break
		}
		d2, aerr := ns.Apply(op)
		if aerr == nil {
			return d2, ns, nil
		}
		lastErr = aerr
		_ = ns.Close()
	}
	return nil, nil, lastErr
}

func (m *Multi) recoverShard(k int) (*store.Session, error) {
	st, _, err := store.Recover(m.shards[k].fsys, m.pair, m.syms, m.opts.Store)
	return st, err
}

// Published returns the union of every shard's most recently committed
// view, the sum of the shard sequence numbers it is current as of, and
// whether any shard is degraded.
func (m *Multi) Published() (*relation.Relation, uint64, bool) {
	var out *relation.Relation
	var seq uint64
	var degraded bool
	for _, s := range m.shards {
		v, sq, dg := s.pipe.Published()
		degraded = degraded || dg
		seq += sq
		if out == nil {
			out = v
		} else {
			out = out.Union(v)
		}
	}
	return out, seq, degraded
}

// DegradedFor reports whether any shard that ops would touch is
// degraded — the per-key-range health check: a broken shard degrades
// submissions for its key range only.
func (m *Multi) DegradedFor(ops []core.UpdateOp) bool {
	for _, op := range ops {
		c, p, _ := m.router.Placement(op)
		if m.shards[c].pipe.Degraded() || m.shards[p].pipe.Degraded() {
			return true
		}
	}
	return false
}

// ShardStatuses returns each shard's health for status endpoints.
func (m *Multi) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(m.shards))
	for i, s := range m.shards {
		_, sq, dg := s.pipe.Published()
		out[i] = ShardStatus{Shard: i, Seq: sq, Degraded: dg}
	}
	return out
}

// Close shuts every pipeline down (draining accepted ops), then closes
// the store sessions and txlogs. The first error wins; a latched shard
// reports its terminal error here.
func (m *Multi) Close() error {
	m.closeOnce.Do(func() {
		for i, s := range m.shards {
			if err := s.pipe.Close(); err != nil && m.closeErr == nil {
				m.closeErr = fmt.Errorf("shard %d: %w", i, err)
			}
			if err := s.pipe.Store().Close(); err != nil && m.closeErr == nil {
				m.closeErr = fmt.Errorf("shard %d store: %w", i, err)
			}
			if err := s.tx.Close(); err != nil && m.closeErr == nil {
				m.closeErr = fmt.Errorf("shard %d txlog: %w", i, err)
			}
		}
	})
	return m.closeErr
}
