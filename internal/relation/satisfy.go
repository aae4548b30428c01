package relation

import (
	"fmt"

	"github.com/constcomp/constcomp/internal/dep"
)

// SatisfiesFD reports whether the relation satisfies the functional
// dependency f: any two tuples agreeing on f.From agree on f.To.
func (r *Relation) SatisfiesFD(f dep.FD) bool {
	if !f.From.Union(f.To).SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: FD %v not over relation attributes %v", f, r.attrs))
	}
	fm := r.projector(f.From)
	tm := r.projector(f.To)
	if km := kmetrics.Load(); km != nil {
		km.fdScanCalls.Inc()
		km.fdScanTuples.Add(int64(r.Len()))
	}
	if r.Len() >= parallelThreshold && workers() > 1 {
		return satisfiesFDParallel(&r.tuples, fm, tm)
	}
	return satisfiesFDScan(&r.tuples, fm, tm)
}

// satisfiesFDScan checks the FD over tuples with a chained hash index of
// the From columns: one witness per distinct From key, every later tuple
// with that key must agree on the To columns.
func satisfiesFDScan(tuples *chunks[Tuple], fm, tm []int) bool {
	n := tuples.len()
	heads := NewHeadTable(n)
	next := make([]int, n)
	for i := 0; i < n; i++ {
		t := tuples.at(i)
		h := hashCols(t, fm)
		matched := false
		for j := heads.Get(h); j >= 0; j = next[j] {
			if w := tuples.at(j); equalOn(w, fm, t, fm) {
				if !equalOn(w, tm, t, tm) {
					return false
				}
				matched = true
				break
			}
		}
		if !matched {
			next[i] = heads.Put(h, i)
		}
	}
	return true
}

// SatisfiesJD reports whether the relation satisfies the join dependency j:
// the join of its projections onto j's components equals the relation.
func (r *Relation) SatisfiesJD(j dep.JD) bool {
	joined := r.Project(j.Components[0])
	for _, c := range j.Components[1:] {
		joined = joined.Join(r.Project(c))
	}
	// R ⊆ join always holds; check the converse by cardinality + equality.
	return joined.Equal(r)
}

// SatisfiesMVD reports whether the relation satisfies the multivalued
// dependency m, via its binary join dependency.
func (r *Relation) SatisfiesMVD(m dep.MVD) bool {
	return r.SatisfiesJD(m.JD())
}

// Satisfies reports whether the relation satisfies a single dependency.
// EFDs are checked as their underlying FDs: a fixed finite instance
// satisfies X →e Y with *some* witness iff it satisfies X → Y (the witness
// can be read off the instance); the instance-independence of the witness
// is a property of schemas, not instances, and is handled in core.
func (r *Relation) Satisfies(d dep.Dependency) bool {
	switch x := d.(type) {
	case dep.FD:
		return r.SatisfiesFD(x)
	case dep.MVD:
		return r.SatisfiesMVD(x)
	case dep.JD:
		return r.SatisfiesJD(x)
	case dep.EFD:
		return r.SatisfiesFD(x.FD())
	}
	panic(fmt.Sprintf("relation: unknown dependency kind %T", d))
}

// SatisfiesAll reports whether the relation satisfies every dependency in Σ.
// On failure it also returns the first violated dependency.
func (r *Relation) SatisfiesAll(sigma *dep.Set) (bool, dep.Dependency) {
	for _, d := range sigma.All() {
		if !r.Satisfies(d) {
			return false, d
		}
	}
	return true, nil
}
