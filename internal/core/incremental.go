package core

// Delta-driven incremental decide/apply: the hot path that makes update
// cost proportional to |Δ| instead of |instance| (after Horn–Perera–
// Cheney, "Incremental Relational Lenses"). A Session lazily builds an
// incState — hash indexes over the view, base and complement, plus a
// chase.Maintained padding fixpoint; its view is the session's one π_X
// image, the one ViewRef publishes — and then:
//
//   - decideInc answers Theorems 3/8/9 by probing the indexes for the
//     condition-(a) matches and the per-FD candidate sets instead of
//     scanning the view, and by imposing candidate equalities as
//     MOverlays on the maintained fixpoint instead of re-padding and
//     re-chasing the whole view instance;
//   - applyInc represents the base-instance change as a delta.Delta
//     (Δ⁺, Δ⁻), verifies legality and complement constancy against
//     per-key support counters touching only the delta's keys, and
//     mutates the database and every index in O(|Δ|).
//
// Fallback discipline: decideInc short-circuits only outcomes it can
// prove without a witness row (identity, condition-(a)/(b) rejections,
// full candidate success); a failing candidate chase, an arity error or
// any internal inconsistency returns ok=false and the caller reruns the
// canonical full path, so error messages and counterexample witnesses
// are byte-identical to the non-incremental path. applyInc stages its
// counter updates before touching the database; a staging failure
// invalidates the whole incState (the maps are half-mutated, the
// database is not) and falls back. Invalidation rules: the incState is
// dropped whenever the database pointer is swapped under it (full-path
// apply), on explicit InvalidateDeltas, when the maintained padding
// latches a clash, or when its free slots or stale entries make a fresh
// rebuild cheaper (chase.Maintained.Wasteful).

import (
	"context"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/delta"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// legalEntry is the invariant of one Z-group of a split FD Z→A over the
// base: all n live rows with this Z-key carry the value a in column A.
type legalEntry struct {
	a value.Value
	n int
}

// incState is the incrementally maintained image of a session's
// database. Every structure is sized by the instance but updated per
// delta tuple.
type incState struct {
	p *Pair
	// view is the maintained π_X image of the session database, the
	// session's only one. viewShared marks that ViewRef handed it out:
	// the next change clones it first (ownView), so a published view
	// stays an immutable snapshot.
	view       *relation.Relation
	viewShared bool
	// viewBy indexes view rows by the shared columns X∩Y (condition a).
	viewBy *relation.TupleIndex
	// compBy indexes the constant complement by the shared columns: the
	// translation t*π_Y(R) is assembled from its matches.
	compBy *relation.TupleIndex
	// dbByX indexes base rows by their X columns: the rows a deletion
	// or replacement actually removes.
	dbByX *relation.TupleIndex
	// fdIdx[i] indexes view rows by fdPlans[i].zInX — the candidate set
	// of the Theorem 3/9 chase loop. nil when the FD is skippable or
	// Z∩X is empty (then every view row is a candidate).
	fdIdx   []*relation.TupleIndex
	fdViewZ [][]int // zInX columns in view layout, per fdPlan
	aView   []int   // A's view column per fdPlan (-1 when A ∉ X)
	aU      []int   // A's column in the padded U layout, per fdPlan
	zOutU   [][]int // Z∩(U−X) columns in the padded U layout, per fdPlan

	sharedView []int // shared columns in view layout
	sharedComp []int // shared columns in complement layout
	viewAll    []int // all view columns (identity key plan)
	xDb        []int // X columns in base layout (= view column order)
	yDb        []int // Y columns in base layout (= complement order)
	// asmView/asmComp assemble a base tuple per U column: from the view
	// tuple when the attribute is in X, else from the complement row.
	asmView []int
	asmComp []int

	// suppY counts live base rows per complement-row key: complement
	// constancy ⇔ no count reaches zero (new keys cannot appear — Δ⁺
	// rows are assembled from existing complement rows).
	suppY map[string]int
	// legal[i] holds the Z-group invariants of split FD i over the base
	// (plans order, U layout): base legality is checked per Δ⁺ tuple
	// against its own Z-keys only.
	legal []map[string]legalEntry

	// pad is the maintained padding fixpoint of the view (each view row
	// padded to U with per-row fresh nulls from gen and chased), the
	// incremental stand-in for newPadding's batch chase.
	pad   *chase.Maintained
	rowOf map[string]int // view-tuple key → pad row id
	gen   value.NullGen
}

// colsOf resolves an attribute set to column positions in r's layout,
// in ascending attribute order.
func colsOf(r *relation.Relation, s attr.Set) []int {
	out := make([]int, 0, 4)
	s.Each(func(id attr.ID) bool {
		out = append(out, r.Col(id))
		return true
	})
	return out
}

// tupleKey serializes t's values at cols, collision-free (values are
// 64-bit ids interned for the process lifetime).
func tupleKey(t relation.Tuple, cols []int) string {
	b := make([]byte, 0, len(cols)*8)
	for _, c := range cols {
		u := uint64(t[c])
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
	}
	return string(b)
}

// tupleVals extracts t's values at cols (for TupleIndex lookups).
func tupleVals(t relation.Tuple, cols []int) []value.Value {
	out := make([]value.Value, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// buildIncState constructs the full image of (db, comp) for pair p. It
// returns nil when the pair is outside the incremental path's scope
// (non-FD Σ is screened by the caller; a padding clash or an illegal
// base cannot occur for a session holding its invariants, but both are
// screened defensively).
func buildIncState(p *Pair, db, comp *relation.Relation) *incState {
	arts := p.artifacts()
	u := p.schema.u
	tmpl := relation.New(u.All())
	view := db.Project(p.x)
	st := &incState{p: p, view: view}
	st.viewAll = make([]int, view.Width())
	for i := range st.viewAll {
		st.viewAll[i] = i
	}
	st.sharedView = colsOf(view, p.shared)
	st.sharedComp = colsOf(comp, p.shared)
	st.xDb = colsOf(db, p.x)
	st.yDb = colsOf(db, p.y)
	st.asmView = make([]int, u.Size())
	st.asmComp = make([]int, u.Size())
	for c, id := range tmpl.Cols() {
		if p.x.Has(id) {
			st.asmView[c] = view.Col(id)
			st.asmComp[c] = -1
		} else {
			st.asmView[c] = -1
			st.asmComp[c] = comp.Col(id)
		}
	}
	st.viewBy = relation.IndexRelation(view, st.sharedView)
	st.compBy = relation.IndexRelation(comp, st.sharedComp)
	st.dbByX = relation.IndexRelation(db, st.xDb)

	n := len(arts.fdPlans)
	st.fdIdx = make([]*relation.TupleIndex, n)
	st.fdViewZ = make([][]int, n)
	st.aView = make([]int, n)
	st.aU = make([]int, n)
	st.zOutU = make([][]int, n)
	for i, fp := range arts.fdPlans {
		st.aU[i] = tmpl.Col(fp.aID)
		st.zOutU[i] = colsOf(tmpl, fp.zOutX)
		st.aView[i] = -1
		if fp.aInX {
			st.aView[i] = view.Col(fp.aID)
		}
		if fp.skippable {
			continue
		}
		st.fdViewZ[i] = colsOf(view, fp.zInX)
		if len(st.fdViewZ[i]) > 0 {
			st.fdIdx[i] = relation.IndexRelation(view, st.fdViewZ[i])
		}
	}

	st.suppY = make(map[string]int, db.Len())
	st.legal = make([]map[string]legalEntry, len(arts.plans))
	for i := range st.legal {
		st.legal[i] = make(map[string]legalEntry, db.Len())
	}
	for _, row := range db.Tuples() {
		st.suppY[tupleKey(row, st.yDb)]++
		for i, pl := range arts.plans {
			zk := tupleKey(row, pl[0])
			a := row[pl[1][0]]
			e, ok := st.legal[i][zk]
			if !ok {
				st.legal[i][zk] = legalEntry{a: a, n: 1}
				continue
			}
			if e.a != a {
				return nil // base violates Σ: session invariant broken
			}
			e.n++
			st.legal[i][zk] = e
		}
	}

	st.pad = chase.NewMaintained(arts.plans)
	st.rowOf = make(map[string]int, view.Len())
	view.Each(func(_ int, vt relation.Tuple) bool {
		st.rowOf[tupleKey(vt, st.viewAll)] = st.pad.AddRow(st.padRow(vt))
		return true
	})
	if st.pad.ConstClash() {
		return nil // view inconsistent with Σ: session invariant broken
	}
	return st
}

// padRow pads a view tuple to the U layout with fresh labeled nulls in
// the U−X columns (the Maintained fresh-nulls precondition).
func (st *incState) padRow(vt relation.Tuple) relation.Tuple {
	pr := make(relation.Tuple, len(st.asmView))
	for c := range pr {
		if vc := st.asmView[c]; vc >= 0 {
			pr[c] = vt[vc]
		} else {
			pr[c] = st.gen.Fresh()
		}
	}
	return pr
}

// assemble builds the base tuple t ⋈ comp over U.
func (st *incState) assemble(vt, comp relation.Tuple) relation.Tuple {
	nt := make(relation.Tuple, len(st.asmView))
	for c := range nt {
		if vc := st.asmView[c]; vc >= 0 {
			nt[c] = vt[vc]
		} else {
			nt[c] = comp[st.asmComp[c]]
		}
	}
	return nt
}

// overlay imposes candidate ri's Z∩(U−X) cells equal to μ's on the
// maintained fixpoint, memoized per decide by imposed-pair signature
// (distinct candidates frequently impose identical equalities).
func (st *incState) overlay(cache map[string]*chase.MOverlay, ri, mu int, zOutU []int) *chase.MOverlay {
	var pairs [][2]value.Value
	for _, c := range zOutU {
		a, b := st.pad.Cell(ri, c), st.pad.Cell(mu, c)
		if a != b {
			pairs = append(pairs, [2]value.Value{a, b})
		}
	}
	key := pairsSignature(pairs)
	if ov, ok := cache[key]; ok {
		return ov
	}
	ov := st.pad.WithEqualities(pairs)
	//constvet:allow cachebound -- dies with one decide; entries bounded by its equality sets
	cache[key] = ov
	return ov
}

// padID resolves a view tuple to its maintained-padding row id.
func (st *incState) padID(vt relation.Tuple) (int, bool) {
	id, ok := st.rowOf[tupleKey(vt, st.viewAll)]
	return id, ok
}

// decideInc answers op against the maintained state. ok=false means the
// incremental path cannot prove the canonical outcome (chase
// counterexample witnesses, arity and domain errors, internal
// inconsistencies, a cancelled context) and the caller must run the
// full decide — which reproduces the canonical witness or budget error.
func (s *Session) decideInc(ctx context.Context, st *incState, op UpdateOp) (*Decision, bool) {
	if ctx.Err() != nil {
		return nil, false // full path surfaces the budget error
	}
	switch op.Kind {
	case UpdateInsert:
		return s.decideInsertInc(ctx, st, op.Tuple)
	case UpdateDelete:
		return s.decideDeleteInc(st, op.Tuple)
	case UpdateReplace:
		return s.decideReplaceInc(ctx, st, op.Tuple, op.With)
	}
	return nil, false
}

func (s *Session) decideInsertInc(ctx context.Context, st *incState, t relation.Tuple) (*Decision, bool) {
	v := st.view
	if len(t) != v.Width() {
		return nil, false // full path reports the arity error
	}
	if v.Contains(t) {
		return &Decision{Translatable: true, Reason: ReasonIdentity}, true
	}
	d := &Decision{}
	matches := st.viewBy.Lookup(tupleVals(t, st.sharedView))
	if len(matches) == 0 {
		d.Reason = ReasonNoSharedMatch
		return d, true
	}
	if r, done := s.pair.checkConditionB(d); done {
		return r, true
	}
	mu, ok := st.padID(matches[0])
	if !ok {
		return nil, false
	}
	if !s.chaseCandidatesInc(ctx, st, d, t, mu, relation.Tuple(nil)) {
		return nil, false
	}
	d.Translatable = true
	d.Reason = ReasonOK
	return d, true
}

func (s *Session) decideDeleteInc(st *incState, t relation.Tuple) (*Decision, bool) {
	v := st.view
	if len(t) != v.Width() {
		return nil, false
	}
	if !v.Contains(t) {
		return &Decision{Translatable: true, Reason: ReasonIdentity}, true
	}
	d := &Decision{}
	// Condition (a): t[X∩Y] ∈ π_{X∩Y}(V − t).
	found := false
	for _, row := range st.viewBy.Lookup(tupleVals(t, st.sharedView)) {
		if !row.Equal(t) {
			found = true
			break
		}
	}
	if !found {
		d.Reason = ReasonNoSharedMatch
		return d, true
	}
	if r, done := s.pair.checkConditionB(d); done {
		return r, true
	}
	d.Translatable = true
	d.Reason = ReasonOK
	return d, true
}

func (s *Session) decideReplaceInc(ctx context.Context, st *incState, t1, t2 relation.Tuple) (*Decision, bool) {
	v := st.view
	if len(t1) != v.Width() || len(t2) != v.Width() {
		return nil, false
	}
	if !v.Contains(t1) || v.Contains(t2) {
		return nil, false // full path reports the domain errors
	}
	d := &Decision{}
	sameShared := tupleKey(t1, st.sharedView) == tupleKey(t2, st.sharedView)
	if !sameShared {
		// Case 1: t1[X∩Y] must survive in V − t1, t2[X∩Y] must exist.
		t1Survives := false
		for _, row := range st.viewBy.Lookup(tupleVals(t1, st.sharedView)) {
			if !row.Equal(t1) {
				t1Survives = true
				break
			}
		}
		if !t1Survives || len(st.viewBy.Lookup(tupleVals(t2, st.sharedView))) == 0 {
			d.Reason = ReasonNoSharedMatch
			return d, true
		}
		if r, done := s.pair.checkConditionB(d); done {
			return r, true
		}
	}
	matches := st.viewBy.Lookup(tupleVals(t2, st.sharedView))
	if len(matches) == 0 {
		d.Reason = ReasonNoSharedMatch
		return d, true
	}
	mu, ok := st.padID(matches[0])
	if !ok {
		return nil, false
	}
	if !s.chaseCandidatesInc(ctx, st, d, t2, mu, t1) {
		return nil, false
	}
	d.Translatable = true
	d.Reason = ReasonOK
	return d, true
}

// chaseCandidatesInc runs condition (c) — the chase of R(V, t, r, f)
// for every FD f and candidate r — against the maintained fixpoint.
// skip, when non-nil, is the replaced tuple t1 (its database rows are
// removed by the translation, so it is never a candidate). It reports
// false when some candidate chase fails OR the state is inconsistent;
// either way the caller falls back to the full decide, which
// reconstructs the canonical witness. The choice of μ does not affect
// the verdict: any view row agreeing with t on X∩Y yields the same
// success set (the fixpoint satisfies every FD Σ implies).
func (s *Session) chaseCandidatesInc(ctx context.Context, st *incState, d *Decision, t relation.Tuple, mu int, skip relation.Tuple) bool {
	v := st.view
	ovCache := make(map[string]*chase.MOverlay)
	for i, fp := range s.pair.artifacts().fdPlans {
		if fp.skippable {
			continue // no candidate chase for this FD can fail (see fdPlan)
		}
		var cands []relation.Tuple
		if st.fdIdx[i] != nil {
			cands = st.fdIdx[i].Lookup(tupleVals(t, st.fdViewZ[i]))
		} else {
			cands = v.Tuples() // Z∩X = ∅: every row agrees vacuously
		}
		for _, row := range cands {
			if skip != nil && row.Equal(skip) {
				continue
			}
			if fp.aInX && row[st.aView[i]] == t[st.aView[i]] {
				continue // no violation possible through this r
			}
			ri, ok := st.padID(row)
			if !ok {
				return false
			}
			if !fp.aInX && ri == mu {
				continue // r = μ: r[A] = μ[A] trivially
			}
			if ctx.Err() != nil {
				return false // cancelled: full path surfaces the budget error
			}
			d.ChaseCalls++
			ov := st.overlay(ovCache, ri, mu, st.zOutU[i])
			success := ov.ConstClash()
			if !success && !fp.aInX {
				success = ov.Same(st.pad.Cell(ri, st.aU[i]), st.pad.Cell(mu, st.aU[i]))
			}
			if !success {
				return false // fall back: full path rebuilds the witness
			}
		}
	}
	return true
}

// applyInc performs the translated update as a delta over the base,
// verifying legality and complement constancy against the support
// counters. It mutates the database and every index in O(|Δ|). ok=false leaves the database
// untouched but may have invalidated the incState; the caller falls
// back to the full translate/verify path.
func (s *Session) applyInc(st *incState, op UpdateOp, d *Decision) bool {
	if d.Reason == ReasonIdentity {
		return true // view unchanged, database unchanged
	}
	de, ok := s.translateInc(st, op)
	if !ok {
		return false
	}
	// Stage the invariant counters; any failure invalidates the whole
	// incState (maps are half-mutated) but never the database.
	if !s.stageInc(st, de) {
		s.invalidateInc()
		return false
	}
	ins, del := de.ApplyTo(s.db)
	if ins != len(de.Plus) || del != len(de.Minus) {
		// Translation disagreed with the instance: the database changed
		// by exactly the delta that DID apply, so the maintained image
		// below still ends consistent; drop it defensively anyway — and
		// any projection memo, since the database mutated without a new
		// view version.
		s.invalidateInc()
		s.proj = nil
		return false
	}
	for _, mt := range de.Minus {
		st.dbByX.Remove(mt)
	}
	for _, pt := range de.Plus {
		st.dbByX.Add(pt)
	}
	switch op.Kind {
	case UpdateInsert:
		st.addViewRow(s, op.Tuple)
	case UpdateDelete:
		st.removeViewRow(s, op.Tuple)
	case UpdateReplace:
		st.removeViewRow(s, op.Tuple)
		st.addViewRow(s, op.With)
	}
	if m := coremetrics.Load(); m != nil {
		m.deltaPlus.Observe(float64(len(de.Plus)))
		m.deltaMinus.Observe(float64(len(de.Minus)))
	}
	return true
}

// translateInc computes the base delta of a decided-translatable op:
// Δ⁻ is the indexed rows whose X projection is the removed view tuple
// (exactly the rows the full translation's set-semantics delete
// touches), Δ⁺ is the removed/inserted view tuple joined with the
// complement rows matching it on X∩Y (t*π_Y(R), which the constant
// complement keeps valid forever).
func (s *Session) translateInc(st *incState, op UpdateOp) (delta.Delta, bool) {
	var de delta.Delta
	add := func(vt relation.Tuple) bool {
		comps := st.compBy.Lookup(tupleVals(vt, st.sharedView))
		if len(comps) == 0 {
			return false // condition (a) hole: full path reports it
		}
		for _, c := range comps {
			de.AddPlus(st.assemble(vt, c))
		}
		return true
	}
	remove := func(vt relation.Tuple) {
		// Copy: Lookup's slice is shared and Δ application mutates the index.
		for _, r := range st.dbByX.Lookup(tupleVals(vt, st.viewAll)) {
			de.AddMinus(r)
		}
	}
	switch op.Kind {
	case UpdateInsert:
		if !add(op.Tuple) {
			return de, false
		}
	case UpdateDelete:
		remove(op.Tuple)
	case UpdateReplace:
		remove(op.Tuple)
		if !add(op.With) {
			return de, false
		}
	default:
		return de, false
	}
	return de, true
}

// stageInc applies the delta to the support and legality counters,
// verifying the session invariants on exactly the touched keys:
// complement constancy (no complement row loses its last supporting
// base row; Δ⁺ introduces no new complement row by construction) and
// base legality (every Δ⁺ tuple agrees with its Z-groups). Returns
// false on violation, leaving the maps inconsistent — the caller must
// invalidate the incState.
func (s *Session) stageInc(st *incState, de delta.Delta) bool {
	arts := s.pair.artifacts()
	decKeys := make([]string, 0, len(de.Minus))
	for _, mt := range de.Minus {
		yk := tupleKey(mt, st.yDb)
		st.suppY[yk]--
		decKeys = append(decKeys, yk)
		for i, pl := range arts.plans {
			zk := tupleKey(mt, pl[0])
			e := st.legal[i][zk]
			if e.n <= 1 {
				delete(st.legal[i], zk)
			} else {
				e.n--
				st.legal[i][zk] = e
			}
		}
	}
	for _, pt := range de.Plus {
		st.suppY[tupleKey(pt, st.yDb)]++
		for i, pl := range arts.plans {
			zk := tupleKey(pt, pl[0])
			a := pt[pl[1][0]]
			e, ok := st.legal[i][zk]
			if !ok {
				st.legal[i][zk] = legalEntry{a: a, n: 1}
				continue
			}
			if e.a != a {
				return false // Δ⁺ would make the base illegal
			}
			e.n++
			st.legal[i][zk] = e
		}
	}
	for _, yk := range decKeys {
		if st.suppY[yk] <= 0 {
			return false // a complement row would lose all support
		}
	}
	return true
}

// ownView makes the view image safe to change: a view ViewRef handed
// out is cloned first. The clone shares tuples, so viewBy, fdIdx and
// rowOf, which hold tuples or their contents, stay valid.
func (st *incState) ownView() {
	if st.viewShared {
		st.view = st.view.Clone()
		st.viewShared = false
	}
}

// addViewRow maintains the view-side image under a view insert.
func (st *incState) addViewRow(s *Session, t relation.Tuple) {
	vt := t.Clone()
	st.ownView()
	st.view.Insert(vt)
	st.viewBy.Add(vt)
	for _, ix := range st.fdIdx {
		if ix != nil {
			ix.Add(vt)
		}
	}
	st.rowOf[tupleKey(vt, st.viewAll)] = st.pad.AddRow(st.padRow(vt))
	if st.pad.ConstClash() {
		// Cannot happen for a legal post-state; drop the state, the
		// database mutation above stands.
		s.invalidateInc()
	}
}

// removeViewRow maintains the view-side image under a view delete.
func (st *incState) removeViewRow(s *Session, t relation.Tuple) {
	st.ownView()
	st.view.Delete(t)
	st.viewBy.Remove(t)
	for _, ix := range st.fdIdx {
		if ix != nil {
			ix.Remove(t)
		}
	}
	k := tupleKey(t, st.viewAll)
	id, ok := st.rowOf[k]
	if !ok {
		s.invalidateInc()
		return
	}
	st.pad.RemoveRow(id)
	delete(st.rowOf, k)
	if st.pad.Wasteful() {
		// Free slots or stale entries outweigh the live fixpoint: a
		// fresh rebuild is cheaper than dragging them along.
		s.invalidateInc()
	}
}
