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
	// the next incremental decide or view read. incEnabled gates the
	// whole path. inc.view is the session's one π_X image: decides probe
	// it and ViewRef hands it to readers. The Session is not
	// goroutine-safe.
	inc        *incState
	incEnabled bool
	// proj memoizes π_X(db) at view version projVersion: the image of a
	// session the incremental path cannot serve (non-FD Σ, or switched
	// off). A projection is never mutated, so it is handed out as is.
	proj        *relation.Relation
	projVersion uint64
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

// InvalidateDeltas drops the incrementally maintained delta state, view
// image included; the next incremental decide or ViewRef rebuilds it
// from the database. Both paths produce identical outcomes either way,
// so it is safe at any point — the equivalence tests call it mid-stream
// to cross-check a rebuilt image against a maintained one.
func (s *Session) InvalidateDeltas() { s.invalidateInc() }

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
// the committer between applies — read the image without a clone, which
// would make the next applies copy the chunks they touch. Everyone else
// wants Database.
func (s *Session) DatabaseRef() *relation.Relation { return s.db }

// ViewRef returns the session's one view image without copying it:
// the incremental state's view, which every applied op patches by its
// own view delta, or π_X(db) projected once per version when the
// incremental path cannot run. Callers must treat it as immutable; it
// stays valid and stable forever, since the session clones its image
// (copy-on-write past 2048 rows, so in O(|batch|)) before the next change.
func (s *Session) ViewRef() *relation.Relation {
	v := s.view()
	if s.inc != nil {
		s.inc.viewShared = true
	}
	return v
}

// View returns the current view instance, owned by the caller.
func (s *Session) View() *relation.Relation { return s.view().Clone() }

// view returns the session's one view image without handing it out:
// the caller must finish with it before the next apply and never
// modify it. Building the incremental state here, not a bare
// projection, keeps a single image: the next decide needs that state
// anyway.
func (s *Session) view() *relation.Relation {
	if st := s.ensureInc(); st != nil {
		return st.view
	}
	if s.proj == nil || s.projVersion != s.version {
		s.proj = s.db.Project(s.pair.x)
		s.projVersion = s.version
	}
	return s.proj
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
	// The Decide* tests only read v, so the live image serves without
	// a copy.
	v := s.view()
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
	// delta state; drop it (rebuilt lazily on the next decide or view
	// read). A view handed out earlier stays as it was.
	s.db = out
	s.invalidateInc()
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
