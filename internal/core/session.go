package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
)

// UpdateKind labels the three view-update operations of §3–§4.
type UpdateKind int

// Update kinds.
const (
	UpdateInsert UpdateKind = iota
	UpdateDelete
	UpdateReplace
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateInsert:
		return "insert"
	case UpdateDelete:
		return "delete"
	case UpdateReplace:
		return "replace"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// UpdateOp is one view update: an insertion or deletion of Tuple, or a
// replacement of Tuple by With.
type UpdateOp struct {
	Kind  UpdateKind
	Tuple relation.Tuple
	With  relation.Tuple
}

// Insert builds an insertion op.
func Insert(t relation.Tuple) UpdateOp { return UpdateOp{Kind: UpdateInsert, Tuple: t} }

// Delete builds a deletion op.
func Delete(t relation.Tuple) UpdateOp { return UpdateOp{Kind: UpdateDelete, Tuple: t} }

// Replace builds a replacement op.
func Replace(t1, t2 relation.Tuple) UpdateOp {
	return UpdateOp{Kind: UpdateReplace, Tuple: t1, With: t2}
}

// LogEntry records one applied (or rejected) update in a Session.
type LogEntry struct {
	Op       UpdateOp
	Decision *Decision
	Applied  bool
}

// Session drives a sequence of view updates against a database under a
// fixed constant complement, keeping the update log and checking the
// framework invariants after every step: the complement never changes
// and the database stays legal. The morphism property of Bancilhon–
// Spyratos fact (ii) manifests operationally: applying a sequence of
// updates equals applying their composition.
type Session struct {
	pair *Pair
	db   *relation.Relation
	// complement is π_Y of the initial database; it must never change.
	complement *relation.Relation
	log        []LogEntry
	// version counts applied ops: it identifies the current view
	// instance (the view only changes when an op is applied).
	version uint64
	// inc is the lazily built delta-maintenance state (see
	// incremental.go); nil means it will be rebuilt from the database on
	// the next incremental decide. incEnabled gates the whole path.
	// The Session is not goroutine-safe.
	inc        *incState
	incEnabled bool
	// mview is the maintained materialized view π_X(db), patched per
	// applied op so readers never pay a full re-projection; nil means
	// invalidated (rebuilt lazily by the next ViewRef). Unlike the
	// incremental decide state it is maintained on the full apply path
	// too: every database change flows through ApplyCtx, and a
	// translatable non-identity op changes the view by exactly
	// (op.Tuple out, op.With in) — the translation realizes precisely
	// the requested view instance.
	mview *relation.Relation
	// mviewShared marks that a ViewRef aliases mview: the next patch
	// must copy-on-write so published views stay immutable snapshots.
	mviewShared bool
}

// NewSession starts a session on a legal database instance.
func NewSession(pair *Pair, db *relation.Relation) (*Session, error) {
	if ok, bad := pair.Schema().Legal(db); !ok {
		return nil, fmt.Errorf("core: initial database violates %v", bad)
	}
	return &Session{
		pair:       pair,
		db:         db.Clone(),
		complement: db.Project(pair.ComplementAttrs()),
		incEnabled: true,
	}, nil
}

// SetIncremental enables or disables the delta-driven incremental
// decide/apply path (incremental.go). Disabling drops the maintained
// state; both paths produce identical decisions and databases, so the
// switch is safe at any point of a session's life.
func (s *Session) SetIncremental(on bool) {
	s.incEnabled = on
	if !on {
		s.inc = nil
	}
}

// IncrementalEnabled reports whether the incremental path can engage:
// it is switched on and Σ is FDs only (the non-FD case always takes
// the full path).
func (s *Session) IncrementalEnabled() bool {
	return s.incEnabled && s.pair.schema.fdsOnly()
}

// InvalidateDeltas drops the incrementally maintained delta state and
// the materialized reader view; the next incremental decide and the
// next ViewRef rebuild them from the database. Both paths produce
// identical outcomes either way, so it is safe at any point — the
// equivalence tests call it mid-stream to cross-check a rebuilt image
// against a maintained one.
func (s *Session) InvalidateDeltas() {
	s.invalidateInc()
	s.invalidateMView()
}

// invalidateInc drops the maintained state, counting the invalidation.
func (s *Session) invalidateInc() {
	if s.inc == nil {
		return
	}
	s.inc = nil
	if m := coremetrics.Load(); m != nil {
		m.incInvalidate.Inc()
	}
}

// ensureInc returns the maintained state, rebuilding it if invalidated.
// nil means the incremental path cannot run (disabled, non-FD Σ, or a
// broken session invariant — then the path disables itself rather than
// rebuild-and-fail on every decide).
func (s *Session) ensureInc() *incState {
	if !s.incEnabled || !s.pair.schema.fdsOnly() {
		return nil
	}
	if s.inc != nil {
		return s.inc
	}
	st := buildIncState(s.pair, s.db, s.complement)
	if st == nil {
		s.incEnabled = false
		return nil
	}
	if m := coremetrics.Load(); m != nil {
		m.incRebuild.Inc()
	}
	s.inc = st
	return st
}

// Database returns a snapshot of the current database.
func (s *Session) Database() *relation.Relation { return s.db.Clone() }

// DatabaseRef returns the session's live database without copying it,
// for read-only use between applies: the next apply mutates it in
// place, so the caller must finish with it before then and must never
// read it concurrently with an apply or modify it. It lets a caller
// that owns the session — the durable store's checkpoint, which runs on
// the committer between applies — read an O(|db|) image without first
// paying an O(|db|) clone. Everyone else wants Database.
func (s *Session) DatabaseRef() *relation.Relation { return s.db }

// ViewRef returns the current materialized view without re-projecting
// the database: the session maintains π_X(db) across applies by
// patching it with each op's view-level delta (see patchMView), paying
// one re-projection only when the image was invalidated. Callers must
// treat the result as immutable; it stays valid and stable forever —
// the session copies-on-write before the next patch.
// This is the serving pipeline's read path. It is not O(|batch|) per
// published batch: the ref itself is free and each op's patch is
// O(1), but the first patch after a ref was handed out clones the
// whole image (the copy-on-write), so a caller that takes a ref after
// every batch pays one O(|view|) Relation.Clone per batch: cheaper
// than an O(|db|) re-projection, but not proportional to the batch.
func (s *Session) ViewRef() *relation.Relation {
	if s.mview == nil {
		s.mview = s.db.Project(s.pair.x)
		if m := coremetrics.Load(); m != nil {
			m.viewRebuild.Inc()
		}
	}
	s.mviewShared = true
	return s.mview
}

// View returns the current view instance, owned by the caller.
func (s *Session) View() *relation.Relation { return s.ViewRef().Clone() }

// patchMView advances the maintained materialized view by one applied
// op. The op was decided translatable against the current view V, and
// the constant-complement translation realizes exactly the requested
// view instance — insert: V ∪ {t}, delete: V − {t}, replace:
// (V − {t1}) ∪ {t2} — so the patch is the op's own tuples; set
// semantics make it exact even when a tuple was already present or
// absent. Identity decisions change nothing and are skipped outright.
func (s *Session) patchMView(op UpdateOp, d *Decision) {
	if s.mview == nil {
		return // invalidated: the next ViewRef re-projects
	}
	if d != nil && d.Reason == ReasonIdentity {
		return
	}
	if s.mviewShared {
		s.mview = s.mview.Clone()
		s.mviewShared = false
	}
	switch op.Kind {
	case UpdateInsert:
		s.mview.Insert(op.Tuple.Clone())
	case UpdateDelete:
		s.mview.Delete(op.Tuple)
	case UpdateReplace:
		s.mview.Delete(op.Tuple)
		s.mview.Insert(op.With.Clone())
	default:
		// Unreachable for an applied op; drop the image rather than
		// serve a stale one.
		s.invalidateMView()
		return
	}
	if m := coremetrics.Load(); m != nil {
		m.viewPatch.Inc()
	}
}

// invalidateMView drops the maintained materialized view; the next
// ViewRef rebuilds it with one re-projection.
func (s *Session) invalidateMView() {
	s.mview = nil
	s.mviewShared = false
}

// Log returns the update log (shared slice; do not modify).
func (s *Session) Log() []LogEntry { return s.log }

// ViewVersion identifies the current view instance: it starts at 0 and
// increments exactly when an op is applied.
func (s *Session) ViewVersion() uint64 { return s.version }

// Decide tests an update without applying it.
func (s *Session) Decide(op UpdateOp) (*Decision, error) {
	return s.DecideCtx(context.Background(), op)
}

// DecideCtx is Decide bounded by a context: the chase-backed insert and
// replace tests honor cancellation within one chase step and return an
// error wrapping ErrBudgetExceeded instead of hanging.
func (s *Session) DecideCtx(ctx context.Context, op UpdateOp) (*Decision, error) {
	return s.decideCtx(ctx, op, nil)
}

// decideCtx is DecideCtx with an optional parent span (ApplyCtx nests
// its decision under the apply span).
func (s *Session) decideCtx(ctx context.Context, op UpdateOp, parent *obs.Span) (*Decision, error) {
	sp := childSpan(parent, "decide/", op.Kind)
	defer sp.End()
	m := coremetrics.Load()
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	if st := s.ensureInc(); st != nil {
		if d, ok := s.decideInc(ctx, st, op); ok {
			if m != nil {
				m.incDecide.Inc()
				m.decideTotal.Inc()
				if validKind(op.Kind) {
					m.decideNs[op.Kind].ObserveDuration(obs.SinceNS(t0))
				}
				if d.Translatable {
					m.translatable.Inc()
				} else {
					m.rejected.Inc()
				}
			}
			return d, nil
		}
		// The incremental path could not prove the canonical outcome
		// (counterexample witness, domain error, inconsistency): run the
		// full decide below.
		if m != nil {
			m.incFallback.Inc()
		}
	}
	v := s.View()
	var d *Decision
	var err error
	switch op.Kind {
	case UpdateInsert:
		d, err = s.pair.DecideInsertCtx(ctx, v, op.Tuple)
	case UpdateDelete:
		d, err = s.pair.DecideDeleteCtx(ctx, v, op.Tuple)
	case UpdateReplace:
		d, err = s.pair.DecideReplaceCtx(ctx, v, op.Tuple, op.With)
	default:
		return nil, fmt.Errorf("core: unknown update kind %v", op.Kind)
	}
	if m != nil {
		m.decideTotal.Inc()
		if validKind(op.Kind) {
			m.decideNs[op.Kind].ObserveDuration(obs.SinceNS(t0))
		}
		if err == nil && d != nil {
			if d.Translatable {
				m.translatable.Inc()
			} else {
				m.rejected.Inc()
			}
		}
	}
	return d, err
}

// ErrRejected is returned by Apply for untranslatable updates; the
// database is unchanged and the rejection is logged.
var ErrRejected = errors.New("core: update rejected as untranslatable")

// Apply decides and, if translatable, performs one update, enforcing the
// constant-complement and legality invariants. On rejection it returns
// ErrRejected (wrapped with the reason).
func (s *Session) Apply(op UpdateOp) (*Decision, error) {
	return s.ApplyCtx(context.Background(), op)
}

// ApplyCtx is Apply bounded by a context. A budget trip during the
// decision leaves the database and the log untouched; the returned
// error wraps ErrBudgetExceeded.
func (s *Session) ApplyCtx(ctx context.Context, op UpdateOp) (*Decision, error) {
	sp := rootSpan("apply/", op.Kind)
	defer sp.End()
	m := coremetrics.Load()
	d, err := s.decideCtx(ctx, op, sp)
	if err != nil {
		return nil, err
	}
	if !d.Translatable {
		s.log = append(s.log, LogEntry{Op: op, Decision: d})
		return d, fmt.Errorf("%w: %s", ErrRejected, d.Reason)
	}
	tsp := sp.Child("translate/" + op.Kind.String())
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	// Delta path: apply the translation as (Δ⁺, Δ⁻) in O(|Δ|), with the
	// invariant checks scoped to the delta's keys. On any failure the
	// database is untouched and the full path below re-verifies from
	// scratch.
	if st := s.ensureInc(); st != nil {
		if s.applyInc(st, op, d) {
			if m != nil {
				m.incApply.Inc()
				if validKind(op.Kind) {
					m.applyNs[op.Kind].ObserveDuration(obs.SinceNS(t0))
				}
				m.applied.Inc()
			}
			tsp.End()
			s.patchMView(op, d)
			s.version++
			s.log = append(s.log, LogEntry{Op: op, Decision: d, Applied: true})
			return d, nil
		}
		if m != nil {
			m.incFallback.Inc()
		}
	}
	// The translate-only variants skip the Pair methods' defensive
	// re-verification: the complement-constancy and legality checks
	// below are the single verification layer for session applies.
	var out *relation.Relation
	switch op.Kind {
	case UpdateInsert:
		out, _, err = s.pair.translateInsert(s.db, op.Tuple)
	case UpdateDelete:
		out, _, err = s.pair.translateDelete(s.db, op.Tuple)
	case UpdateReplace:
		out, _, err = s.pair.translateReplace(s.db, op.Tuple, op.With)
	}
	if m != nil && validKind(op.Kind) {
		m.applyNs[op.Kind].ObserveDuration(obs.SinceNS(t0))
	}
	tsp.End()
	if err != nil {
		return d, err
	}
	if !out.Project(s.pair.ComplementAttrs()).Equal(s.complement) {
		return d, errors.New("core: internal: complement drifted")
	}
	if ok, bad := s.pair.Schema().Legal(out); !ok {
		return d, fmt.Errorf("core: internal: database became illegal (%v)", bad)
	}
	// The full path swapped the database pointer under the maintained
	// delta state; drop it (rebuilt lazily on the next decide). The
	// materialized reader view survives: it advances by the op's view
	// delta regardless of which apply path ran.
	s.db = out
	s.invalidateInc()
	s.patchMView(op, d)
	s.version++
	s.log = append(s.log, LogEntry{Op: op, Decision: d, Applied: true})
	if m != nil {
		m.applied.Inc()
	}
	return d, nil
}

// ApplyAll applies a sequence of updates, stopping at the first rejection
// or error. It returns the number applied.
func (s *Session) ApplyAll(ops []UpdateOp) (int, error) {
	return s.ApplyAllCtx(context.Background(), ops)
}

// ApplyAllCtx is ApplyAll bounded by a context, checked per update.
func (s *Session) ApplyAllCtx(ctx context.Context, ops []UpdateOp) (int, error) {
	for i, op := range ops {
		if _, err := s.ApplyCtx(ctx, op); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}
