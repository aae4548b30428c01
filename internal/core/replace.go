package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/relation"
)

// DecideReplace decides, by Theorem 9, whether replacing tuple t1 by tuple
// t2 in view instance v is translatable under constant complement Y.
//
// Case 1 (t1[X∩Y] ≠ t2[X∩Y]): behaves like a deletion of t1 plus an
// insertion of t2 — conditions (a) and (b) apply, and condition (c) runs
// the chase of R(V, t2, r, f) for every FD f and every r ≠ t1.
//
// Case 2 (t1[X∩Y] = t2[X∩Y]): conditions (a) and (b) are vacuous; only
// the chase condition (c) is tested.
//
// Theorem 9 assumes t1 ∈ V and t2 ∉ V. A replacement of t1 ∈ V by
// itself is answered as the identity update (ReasonIdentity), as an
// insert of a present tuple or a delete of an absent one is: it leaves
// the view, so the database, unchanged.
func (p *Pair) DecideReplace(v *relation.Relation, t1, t2 relation.Tuple) (*Decision, error) {
	return p.decideReplace(nil, v, t1, t2)
}

// DecideReplaceCtx is DecideReplace bounded by a context; see
// DecideInsertCtx for the cancellation granularity. On exhaustion the
// error wraps ErrBudgetExceeded.
func (p *Pair) DecideReplaceCtx(ctx context.Context, v *relation.Relation, t1, t2 relation.Tuple) (*Decision, error) {
	return p.decideReplace(budget.New(ctx), v, t1, t2)
}

func (p *Pair) decideReplace(b *budget.B, v *relation.Relation, t1, t2 relation.Tuple) (*Decision, error) {
	if err := p.requireFDOnly(); err != nil {
		return nil, err
	}
	if err := p.checkViewInstance(v); err != nil {
		return nil, err
	}
	if len(t1) != v.Width() || len(t2) != v.Width() {
		return nil, fmt.Errorf("core: tuple arity mismatch with view arity %d", v.Width())
	}
	if !v.Contains(t1) {
		return nil, errors.New("core: replaced tuple t1 is not in the view")
	}
	if t1.Equal(t2) {
		return &Decision{Translatable: true, Reason: ReasonIdentity}, nil
	}
	if v.Contains(t2) {
		return nil, errors.New("core: replacement tuple t2 is already in the view")
	}
	d := &Decision{}
	sameShared := agreesOnTuples(t1, t2, v, p.shared)
	if !sameShared {
		// Case 1: conditions (a) and (b).
		// (a) t1[X∩Y] must survive in V − t1, and t2[X∩Y] must exist in V.
		t1Survives := false
		t2Present := false
		for _, row := range v.Tuples() {
			if !row.Equal(t1) && agreesOn(row, t1, v, p.shared) {
				t1Survives = true
			}
			if agreesOn(row, t2, v, p.shared) {
				t2Present = true
			}
		}
		if !t1Survives || !t2Present {
			d.Reason = ReasonNoSharedMatch
			return d, nil
		}
		if r, done := p.checkConditionB(d); done {
			return r, nil
		}
	}
	// Condition (c): chase R(V, t2, r, f) for all f ∈ Σ, r ∈ V, r ≠ t1.
	pd, err := p.newPaddingBudget(b, v)
	if err != nil {
		if errors.Is(err, errConstClash) {
			d.Reason = ReasonViewInconsistent
			return d, nil
		}
		return nil, err
	}
	d.ChaseCalls++
	// μ: a view tuple agreeing with t2 on X∩Y.
	mu := -1
	for ri, row := range v.Tuples() {
		if agreesOn(row, t2, v, p.shared) {
			mu = ri
			break
		}
	}
	if mu < 0 {
		d.Reason = ReasonNoSharedMatch
		return d, nil
	}
	for _, fp := range p.artifacts().fdPlans {
		if fp.skippable {
			continue // no candidate chase for this FD can fail (see fdPlan)
		}
		f, aID, zInX, zOutX, aInX := fp.fd, fp.aID, fp.zInX, fp.zOutX, fp.aInX
		for ri, row := range v.Tuples() {
			if row.Equal(t1) {
				continue // t1's database rows are removed by the translation
			}
			if !agreesOn(row, t2, v, zInX) {
				continue
			}
			if aInX && row[v.Col(aID)] == t2[v.Col(aID)] {
				continue
			}
			if !aInX && ri == mu {
				continue
			}
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

// agreesOnTuples reports whether two view tuples agree on the given view
// attributes.
func agreesOnTuples(a, b relation.Tuple, v *relation.Relation, on attr.Set) bool {
	return agreesOn(a, b, v, on)
}

// ApplyReplace performs the translation
// T_u[R] = R − t1*π_Y(R) ∪ t2*π_Y(R) of Theorem 9 on a database instance,
// verifying legality, complement constancy and the view semantics.
func (p *Pair) ApplyReplace(r *relation.Relation, t1, t2 relation.Tuple) (*relation.Relation, error) {
	out, v, err := p.translateReplace(r, t1, t2)
	if err != nil {
		return nil, err
	}
	if ok, bad := p.schema.Legal(out); !ok {
		return nil, fmt.Errorf("core: translated replacement violates %v", bad)
	}
	if !out.Project(p.y).Equal(r.Project(p.y)) {
		return nil, errors.New("core: translated replacement changed the complement")
	}
	want := v.Clone()
	want.Delete(t1)
	want.Insert(t2.Clone())
	if !out.Project(p.x).Equal(want) {
		return nil, errors.New("core: translated replacement did not implement the view update")
	}
	return out, nil
}

// translateReplace computes T_u[R] = R − t1*π_Y(R) ∪ t2*π_Y(R) and the
// view π_X(R) without ApplyReplace's defensive re-verification;
// Session.ApplyCtx verifies once at the session layer.
func (p *Pair) translateReplace(r *relation.Relation, t1, t2 relation.Tuple) (out, v *relation.Relation, err error) {
	if err := p.requireFDOnly(); err != nil {
		return nil, nil, err
	}
	if !r.Attrs().Equal(p.schema.u.All()) {
		return nil, nil, errors.New("core: database instance must be over U")
	}
	v = r.Project(p.x)
	if !v.Contains(t1) {
		return nil, nil, errors.New("core: replaced tuple t1 is not in the view")
	}
	// Both joins use the complement of the *original* R.
	vy := r.Project(p.y)
	doomed := relation.Singleton(p.x, t1).Join(vy)
	added := relation.Singleton(p.x, t2).Join(vy)
	if added.Len() == 0 {
		return nil, nil, errors.New("core: no complement tuple matches t2 on X∩Y (condition a)")
	}
	out = r.Clone()
	for _, dt := range doomed.Tuples() {
		out.Delete(dt)
	}
	for _, nt := range added.Tuples() {
		// Shared, not copied: tuples are immutable once inserted.
		out.Insert(nt)
	}
	return out, v, nil
}
