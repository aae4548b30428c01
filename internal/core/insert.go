package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Reason classifies why an update is or is not translatable.
type Reason int

// Decision reasons.
const (
	// ReasonOK: the update is translatable.
	ReasonOK Reason = iota
	// ReasonIdentity: the update does not change the view; the
	// translation is the identity (acceptability).
	ReasonIdentity
	// ReasonNoSharedMatch: condition (a) fails — t[X∩Y] is not in
	// π_{X∩Y} of the (remaining) view instance, so the complement cannot
	// stay constant.
	ReasonNoSharedMatch
	// ReasonSharedNotKeyOfComplement: condition (b) fails — Σ does not
	// imply X∩Y → Y, so the translated tuples are not uniquely
	// determined.
	ReasonSharedNotKeyOfComplement
	// ReasonSharedKeyOfView: condition (b) fails the other way — Σ
	// implies X∩Y → X, so V ∪ t is not the projection of any legal
	// instance.
	ReasonSharedKeyOfView
	// ReasonChaseCounterexample: condition (c) fails — the chase of
	// R(V, t, r, f) does not succeed for the witness (f, r), so some
	// legal database would be made inconsistent.
	ReasonChaseCounterexample
	// ReasonViewInconsistent: the given view instance is not the
	// projection of any legal instance (its padding chase clashes).
	ReasonViewInconsistent
	// ReasonNotGoodComplement: Test 2 only — the complement failed the
	// goodness check, so Test 2 rejects every insertion.
	ReasonNotGoodComplement
	// ReasonRepresentativeViolation: Test 2 only — the translated
	// insertion violates Σ on the canonical instance R₀.
	ReasonRepresentativeViolation
)

func (r Reason) String() string {
	switch r {
	case ReasonOK:
		return "translatable"
	case ReasonIdentity:
		return "identity (view unchanged)"
	case ReasonNoSharedMatch:
		return "t[X∩Y] not present in the view (condition a)"
	case ReasonSharedNotKeyOfComplement:
		return "Σ does not imply X∩Y → Y (condition b)"
	case ReasonSharedKeyOfView:
		return "Σ implies X∩Y → X (condition b)"
	case ReasonChaseCounterexample:
		return "chase counterexample (condition c)"
	case ReasonViewInconsistent:
		return "view instance is not a projection of a legal instance"
	case ReasonNotGoodComplement:
		return "complement is not good (Test 2 rejects all)"
	case ReasonRepresentativeViolation:
		return "insertion violates Σ on the canonical instance (Test 2)"
	}
	return fmt.Sprintf("Reason(%d)", int(r))
}

// Decision is the outcome of a translatability test.
type Decision struct {
	// Translatable reports whether the update can be translated under
	// the constant complement.
	Translatable bool
	// Reason explains the verdict.
	Reason Reason
	// WitnessFD and WitnessRow identify the failing (f, r) pair for
	// ReasonChaseCounterexample and ReasonRepresentativeViolation.
	WitnessFD  dep.FD
	WitnessRow relation.Tuple
	// ChaseCalls counts instance chases performed (benchmarking aid).
	ChaseCalls int
}

// padding is a view instance padded to the full universe with fresh
// labeled nulls in the U−X columns, chased to its canonical form.
type padding struct {
	pair *Pair
	// b bounds the chases run through this padding; nil is unlimited.
	b *budget.B
	// raw has row i aligned with view row i, nulls un-chased.
	raw *relation.Relation
	// res is the base chase result over raw.
	res *chase.Result
	// fds is Σ split to single-attribute RHS.
	fds []dep.FD
	// lastImpose is the substitution of the most recent imposeAndChase.
	lastImpose *imposeState
	// cache memoizes rebuild-strategy impositions by substitution
	// signature: after the base chase, distinct candidates frequently
	// impose identical equalities (e.g. all rows of one pivot group share
	// their null), so their chases coincide.
	cache map[string]*imposeState
	// prep indexes the canonical fixpoint for incremental impositions.
	prep *chase.Prepared
	// ovCache memoizes incremental overlays by pair signature.
	ovCache map[string]*chase.Overlay
}

// overlayFor imposes r[zOut] = μ[zOut] incrementally on the base fixpoint.
func (pd *padding) overlayFor(ri, mu int, zOut attr.Set) *chase.Overlay {
	if pd.prep == nil {
		// The column plans are a per-Pair constant (the padded relation
		// is always over U); only the row buckets are rebuilt here.
		pd.prep = chase.PrepareWithPlans(pd.res.Relation(), pd.fds, pd.pair.artifacts().plans)
		pd.ovCache = make(map[string]*chase.Overlay)
	}
	var pairs [][2]value.Value
	zOut.Each(func(id attr.ID) bool {
		a, b := pd.cell(ri, id), pd.cell(mu, id)
		if a != b {
			pairs = append(pairs, [2]value.Value{a, b})
		}
		return true
	})
	key := pairsSignature(pairs)
	if ov, ok := pd.ovCache[key]; ok {
		return ov
	}
	ov := pd.prep.WithEqualities(pairs)
	//constvet:allow cachebound -- padding state dies with one decide; entries bounded by its equality sets
	pd.ovCache[key] = ov
	return ov
}

// pairsSignature canonically serializes imposed pairs for memoization.
func pairsSignature(pairs [][2]value.Value) string {
	b := make([]byte, 0, len(pairs)*16)
	for _, pr := range pairs {
		for _, v := range pr {
			u := uint64(v)
			for i := 0; i < 8; i++ {
				b = append(b, byte(u>>(8*i)))
			}
		}
	}
	return string(b)
}

// newPadding pads v with fresh nulls and runs the base chase.
func (p *Pair) newPadding(v *relation.Relation) (*padding, error) {
	return p.newPaddingBudget(nil, v)
}

// newPaddingBudget is newPadding with the base chase (and every later
// imposition chase through the padding) bounded by b.
func (p *Pair) newPaddingBudget(b *budget.B, v *relation.Relation) (*padding, error) {
	u := p.schema.u
	var gen value.NullGen
	raw := relation.New(u.All())
	v.Each(func(_ int, t relation.Tuple) bool {
		nt := make(relation.Tuple, u.Size())
		for c := 0; c < u.Size(); c++ {
			if vc := v.Col(attr.ID(c)); vc >= 0 {
				nt[c] = t[vc]
			} else {
				nt[c] = gen.Fresh()
			}
		}
		raw.Insert(nt)
		return true
	})
	if raw.Len() != v.Len() {
		return nil, errors.New("core: internal: padding changed cardinality")
	}
	fds := p.artifacts().splitFDs
	res, err := chase.InstanceBudget(b, raw, fds)
	if err != nil {
		return nil, err
	}
	if res.ConstClash() {
		return nil, errConstClash
	}
	return &padding{pair: p, b: b, raw: raw, res: res, fds: fds}, nil
}

var errConstClash = errors.New("core: view instance inconsistent with Σ")

// cell returns the canonical post-chase value of view row i, attribute id.
func (pd *padding) cell(i int, id attr.ID) value.Value {
	return pd.res.Find(pd.raw.Tuple(i)[pd.raw.Col(id)])
}

// DecideInsert decides, by the exact test of Theorem 3, whether inserting
// tuple t (over X, in ascending attribute order) into view instance v is
// translatable under constant complement Y. Σ must consist of FDs only.
//
// The test runs the chase of R(V, t, r, f) for every FD f = Z→A in Σ and
// every candidate tuple r of V; the insertion is translatable iff every
// such chase succeeds (equates two distinct constants of V, or forces
// r[A] = μ[A]). Worst-case O(|V|³ log |V|) per the paper's Corollary.
func (p *Pair) DecideInsert(v *relation.Relation, t relation.Tuple) (*Decision, error) {
	return p.decideInsert(nil, v, t)
}

// DecideInsertCtx is DecideInsert bounded by a context: the base chase
// honors cancellation between passes and every candidate (f, r) chase
// charges a step, so the test aborts within one chase step of
// cancellation with an error wrapping ErrBudgetExceeded.
func (p *Pair) DecideInsertCtx(ctx context.Context, v *relation.Relation, t relation.Tuple) (*Decision, error) {
	return p.decideInsert(budget.New(ctx), v, t)
}

func (p *Pair) decideInsert(b *budget.B, v *relation.Relation, t relation.Tuple) (*Decision, error) {
	if err := p.requireFDOnly(); err != nil {
		return nil, err
	}
	if err := p.checkViewInstance(v); err != nil {
		return nil, err
	}
	if len(t) != v.Width() {
		return nil, fmt.Errorf("core: tuple arity %d, view arity %d", len(t), v.Width())
	}
	if v.Contains(t) {
		return &Decision{Translatable: true, Reason: ReasonIdentity}, nil
	}
	d := &Decision{}
	mu, ok := p.findSharedMatch(v, t)
	if !ok {
		d.Reason = ReasonNoSharedMatch
		return d, nil
	}
	if r, done := p.checkConditionB(d); done {
		return r, nil
	}
	pd, err := p.newPaddingBudget(b, v)
	if err != nil {
		if errors.Is(err, errConstClash) {
			d.Reason = ReasonViewInconsistent
			return d, nil
		}
		return nil, err
	}
	d.ChaseCalls++

	for _, fp := range p.artifacts().fdPlans {
		if fp.skippable {
			continue // no candidate chase for this FD can fail (see fdPlan)
		}
		f, aID, zInX, zOutX, aInX := fp.fd, fp.aID, fp.zInX, fp.zOutX, fp.aInX
		for ri, row := range v.Tuples() {
			if !agreesOn(row, t, v, zInX) {
				continue
			}
			if aInX && row[v.Col(aID)] == t[v.Col(aID)] {
				continue // no violation possible through this r
			}
			if !aInX && ri == mu {
				continue // r = μ: r[A] = μ[A] trivially
			}
			// Impose r[Z∩(U−X)] = μ[Z∩(U−X)] on the chased base and
			// propagate (incremental overlay by default; full rebuild
			// + re-chase under ImposeRebuild, kept for the A5 ablation).
			if err := b.Step(1); err != nil {
				return nil, err
			}
			d.ChaseCalls++
			var success bool
			if p.strategy == ImposeRebuild {
				res, clash, err := pd.imposeAndChase(ri, mu, zOutX)
				if err != nil {
					return nil, err
				}
				success = clash
				if !success && res != nil {
					success = res.ConstClash()
					if !success && !aInX {
						success = res.Same(pd.subbed(ri, aID), pd.subbed(mu, aID))
					}
				}
			} else {
				ov := pd.overlayFor(ri, mu, zOutX)
				success = ov.ConstClash()
				if !success && !aInX {
					success = ov.Same(pd.cell(ri, aID), pd.cell(mu, aID))
				}
			}
			if !success {
				d.Reason = ReasonChaseCounterexample
				d.WitnessFD = f
				d.WitnessRow = row.Clone()
				return d, nil
			}
		}
	}
	d.Translatable = true
	d.Reason = ReasonOK
	return d, nil
}

// findSharedMatch locates a tuple μ of v agreeing with t on X∩Y
// (condition (a)). Returns its row index.
func (p *Pair) findSharedMatch(v *relation.Relation, t relation.Tuple) (int, bool) {
	for ri, row := range v.Tuples() {
		if agreesOn(row, t, v, p.shared) {
			return ri, true
		}
	}
	return -1, false
}

// checkConditionB verifies condition (b) of Theorems 3/8/9, filling d and
// reporting whether the decision is final. The key checks are closure
// computations over the immutable schema, memoized per Pair.
func (p *Pair) checkConditionB(d *Decision) (*Decision, bool) {
	a := p.artifacts()
	keyOfY, keyOfX := a.keyOfY, a.keyOfX
	if keyOfX {
		d.Reason = ReasonSharedKeyOfView
		return d, true
	}
	if !keyOfY {
		d.Reason = ReasonSharedNotKeyOfComplement
		return d, true
	}
	return nil, false
}

// agreesOn reports whether view row and tuple t agree on the given
// attributes (all must be view attributes).
func agreesOn(row, t relation.Tuple, v *relation.Relation, on attr.Set) bool {
	ok := true
	on.Each(func(id attr.ID) bool {
		if c := v.Col(id); row[c] != t[c] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// subst is a value substitution built during imposition.
type subst map[value.Value]value.Value

func (s subst) resolve(v value.Value) value.Value {
	for {
		n, ok := s[v]
		if !ok {
			return v
		}
		v = n
	}
}

// imposeState is the substitution applied for the last imposeAndChase, so
// the caller can resolve designated cells.
type imposeState struct {
	sub subst
	res *chase.Result
}

// imposeAndChase equates r's and μ's canonical values on the columns of
// zOut, then re-chases. It reports (result, immediateClash): if imposing
// already equates two distinct constants, it returns (nil, true). The
// re-chase runs under the padding's budget; a budget trip surfaces as
// the error.
func (pd *padding) imposeAndChase(ri, mu int, zOut attr.Set) (*chase.Result, bool, error) {
	sub := make(subst)
	clash := false
	zOut.Each(func(id attr.ID) bool {
		a := sub.resolve(pd.cell(ri, id))
		b := sub.resolve(pd.cell(mu, id))
		if a == b {
			return true
		}
		if a.IsConst() && b.IsConst() {
			clash = true
			return false
		}
		// Constant wins; among nulls the smaller index.
		if b.IsConst() || (!a.IsConst() && b > a) {
			a, b = b, a
		}
		sub[b] = a
		return true
	})
	if clash {
		pd.lastImpose = nil
		return nil, true, nil
	}
	if len(sub) == 0 {
		// Nothing new was imposed (Z ∩ (U−X) empty, or the cells already
		// coincide after the base chase): the base fixpoint is already
		// the chase of R(V, t, r, f). Skipping the re-chase turns the
		// common Z ⊆ X case from O(|Σ|·|V|) into O(1) per candidate.
		pd.lastImpose = &imposeState{sub: sub, res: pd.res}
		return pd.res, false, nil
	}
	if st, ok := pd.cache[sub.signature()]; ok {
		pd.lastImpose = st
		return st.res, false, nil
	}
	rebuilt := relation.New(pd.raw.Attrs())
	for i := 0; i < pd.raw.Len(); i++ {
		row := pd.raw.Tuple(i)
		nt := make(relation.Tuple, len(row))
		for c, v := range row {
			nt[c] = sub.resolve(pd.res.Find(v))
		}
		rebuilt.Insert(nt)
	}
	res, err := chase.InstanceBudget(pd.b, rebuilt, pd.fds)
	if err != nil {
		return nil, false, err
	}
	st := &imposeState{sub: sub, res: res}
	if pd.cache == nil {
		pd.cache = make(map[string]*imposeState)
	}
	//constvet:allow cachebound -- padding state dies with one decide; entries bounded by its substitutions
	pd.cache[sub.signature()] = st
	pd.lastImpose = st
	return res, false, nil
}

// signature canonically serializes the substitution for memoization.
func (s subst) signature() string {
	type pair struct{ from, to value.Value }
	ps := make([]pair, 0, len(s))
	for f, t := range s {
		ps = append(ps, pair{f, s.resolve(t)})
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].from != ps[j].from {
			return ps[i].from < ps[j].from
		}
		return ps[i].to < ps[j].to
	})
	b := make([]byte, 0, len(ps)*16)
	for _, p := range ps {
		for i := 0; i < 8; i++ {
			b = append(b, byte(uint64(p.from)>>(8*i)))
		}
		for i := 0; i < 8; i++ {
			b = append(b, byte(uint64(p.to)>>(8*i)))
		}
	}
	return string(b)
}

// subbed resolves a view row's canonical cell through the last
// imposition's substitution.
func (pd *padding) subbed(i int, id attr.ID) value.Value {
	v := pd.cell(i, id)
	if pd.lastImpose != nil {
		v = pd.lastImpose.sub.resolve(v)
	}
	return v
}

// canonicalInstance returns the canonical legal instance R₀ obtained by
// padding and chasing the view instance (used by Test 2 and by the
// reconstruction of translated tuples at the instance level).
func (pd *padding) canonicalInstance() *relation.Relation {
	return pd.res.Relation()
}

// ViewConsistent reports whether v is the X-projection of some legal
// instance of the schema: the chase of v padded with fresh nulls derives
// no contradiction. Σ must consist of FDs only. The translatability tests
// assume a consistent view instance (the "current instance of the view" of
// §3); DecideInsert detects inconsistency itself, the cheaper Test 1 does
// not.
func ViewConsistent(s *Schema, x attr.Set, v *relation.Relation) (bool, error) {
	if !s.fdsOnly() {
		return false, errors.New("core: ViewConsistent requires Σ of FDs only")
	}
	if !v.Attrs().Equal(x) {
		return false, fmt.Errorf("core: view instance over %v, want %v", v.Attrs(), x)
	}
	p := &Pair{schema: s, x: x, y: s.u.All(), shared: x}
	_, err := p.newPadding(v)
	if errors.Is(err, errConstClash) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// ApplyInsert performs the unique translation T_u[R] = R ∪ t*π_Y(R) of
// Theorem 3 on an actual database instance. It verifies that the result is
// legal and that the complement stayed constant, returning an error
// otherwise (callers normally run DecideInsert on π_X(R) first).
func (p *Pair) ApplyInsert(r *relation.Relation, t relation.Tuple) (*relation.Relation, error) {
	out, v, err := p.translateInsert(r, t)
	if err != nil {
		return nil, err
	}
	if ok, bad := p.schema.Legal(out); !ok {
		return nil, fmt.Errorf("core: translated insertion violates %v", bad)
	}
	if !out.Project(p.y).Equal(r.Project(p.y)) {
		return nil, errors.New("core: translated insertion changed the complement")
	}
	if !out.Project(p.x).Equal(v.Union(relation.Singleton(p.x, t))) {
		return nil, errors.New("core: translated insertion did not implement the view update")
	}
	return out, nil
}

// translateInsert computes T_u[R] = R ∪ t*π_Y(R) and the view π_X(R)
// without the defensive re-verification of ApplyInsert. Session.ApplyCtx
// uses it directly and verifies legality and complement constancy once
// at the session layer instead of twice per update.
func (p *Pair) translateInsert(r *relation.Relation, t relation.Tuple) (out, v *relation.Relation, err error) {
	if err := p.requireFDOnly(); err != nil {
		return nil, nil, err
	}
	if !r.Attrs().Equal(p.schema.u.All()) {
		return nil, nil, errors.New("core: database instance must be over U")
	}
	v = r.Project(p.x)
	if v.Contains(t) {
		return r.Clone(), v, nil // acceptability: view unchanged, database unchanged
	}
	joined, err := p.translatedTuples(r, t)
	if err != nil {
		return nil, nil, err
	}
	out = r.Clone()
	for _, nt := range joined.Tuples() {
		// Tuples are immutable once inserted (relation's sharing
		// invariant), so the joined tuples can be shared, not copied.
		out.Insert(nt)
	}
	return out, v, nil
}

// translatedTuples computes t*π_Y(R): the database tuples whose X part is
// t and whose Y part comes from the complement rows matching t on X∩Y.
func (p *Pair) translatedTuples(r *relation.Relation, t relation.Tuple) (*relation.Relation, error) {
	vy := r.Project(p.y)
	tx := relation.Singleton(p.x, t)
	joined := tx.Join(vy)
	if joined.Len() == 0 {
		return nil, errors.New("core: no complement tuple matches t on X∩Y (condition a)")
	}
	return joined, nil
}
