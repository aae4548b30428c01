package core

import (
	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
)

// This file holds the memoization layer behind decide. Pair and Schema
// never change after construction, so the artifacts a decide
// recomputes from them (SharedIsKeyOf, SplitFDs, the chase column
// plans) are per-Pair constants, safe to share. No invalidation is ever
// needed: the complement of a Pair is constant by construction, so
// none of these artifacts can go stale.

// --- Per-Pair artifacts ---

// pairArtifacts are the schema-level constants every decide consults:
// the condition (b) key checks, Σ split to single-attribute RHS, and
// the chase column plans over the padded layout (columns of a relation
// are a pure function of its attribute set, so plans computed against
// an empty relation over U are valid for every padding).
type pairArtifacts struct {
	keyOfY, keyOfX bool
	splitFDs       []dep.FD
	plans          chase.Plans
	// fdPlans precomputes, per split FD Z→A, the attribute-set views the
	// candidate loops of decideInsert/decideReplace need on every row.
	fdPlans []fdPlan
}

// fdPlan is the per-FD geometry of the Theorem 3/9 candidate loop.
type fdPlan struct {
	fd    dep.FD
	aID   attr.ID
	zInX  attr.Set // Z ∩ X: candidate filter columns
	zOutX attr.Set // Z ∩ (U−X): imposition columns
	aInX  bool
	// skippable marks FDs for which no candidate (f, r) chase can fail,
	// so the loops elide them entirely. With μ the condition-(a) match:
	// if Z∩X ⊆ X∩Y and A ∈ X∩Y ∪ (U−X), every surviving candidate r
	// agrees with μ on Z∩X, and the imposition r[Z∩(U−X)] = μ[Z∩(U−X)]
	// makes r and μ agree on all of Z in the chased fixpoint — which
	// already satisfies Σ, so it derives r[A] = μ[A]. When A ∈ X the
	// aInX pre-filter removed rows agreeing with t on A; agreeing with
	// μ[A] = t[A] (μ matches t on X∩Y ∋ A) is then a constant clash —
	// chase success either way. Skipping is sound for the full and the
	// incremental decide paths alike.
	skippable bool
}

// artifacts returns the pair's memoized artifacts, computing them on
// first use. Safe for concurrent use; racing computations produce
// identical values and the first published wins.
func (p *Pair) artifacts() *pairArtifacts {
	if a := p.arts.Load(); a != nil {
		return a
	}
	fds := p.schema.sigma.SplitFDs()
	keyOfY, keyOfX := SharedIsKeyOf(p.schema, p.x, p.y)
	fdPlans := make([]fdPlan, len(fds))
	for i, f := range fds {
		aID := f.To.IDs()[0]
		zInX := f.From.Intersect(p.x)
		aInX := p.x.Has(aID)
		fdPlans[i] = fdPlan{
			fd:        f,
			aID:       aID,
			zInX:      zInX,
			zOutX:     f.From.Diff(p.x),
			aInX:      aInX,
			skippable: zInX.Diff(p.shared).IsEmpty() && (!aInX || p.shared.Has(aID)),
		}
	}
	a := &pairArtifacts{
		keyOfY:   keyOfY,
		keyOfX:   keyOfX,
		splitFDs: fds,
		plans:    chase.PlanFDs(relation.New(p.schema.u.All()), fds),
		fdPlans:  fdPlans,
	}
	p.arts.CompareAndSwap(nil, a)
	return p.arts.Load()
}
