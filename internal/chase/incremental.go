package chase

import (
	"sort"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Prepared indexes a chased relation (a fixpoint of Instance) so that
// additional equalities can be imposed incrementally: instead of
// rebuilding and re-chasing the whole relation per imposition —
// O(|Σ|·|R|) even when nothing fires — an Overlay propagates only from
// the rows that actually contain a changed value. This is the engine
// behind the exact test's per-candidate impositions (ablation A5).
type Prepared struct {
	rel *relation.Relation
	// plans[i] holds the Z and A column indexes of fds[i].
	plans [][2][]int
	// baseBuckets[i]/baseNext[i] chain one representative row per
	// distinct base Z-key of fds[i], keyed by the Z-key hash. In a
	// fixpoint, all rows with a chained row's Z-key agree on A.
	baseBuckets []*bucketTable
	baseNext    [][]int
	// valueRows maps each value to the rows containing it.
	valueRows map[value.Value][]int
}

// Plans holds the per-FD Z and A column indexes of a Prepared, resolved
// against a relation's column layout. The layout of a relation is a
// pure function of its attribute set (columns ascend by attribute ID),
// so Plans computed once against any relation over the same attributes
// are valid for every other — callers that prepare many fixpoints over
// one schema can compute the plans once and reuse them via
// PrepareWithPlans.
type Plans [][2][]int

// PlanFDs computes the column plans of fds against rel's layout.
func PlanFDs(rel *relation.Relation, fds []dep.FD) Plans {
	plans := make(Plans, 0, len(fds))
	for _, f := range fds {
		var zc, ac []int
		f.From.Each(func(id attr.ID) bool { zc = append(zc, rel.Col(id)); return true })
		f.To.Each(func(id attr.ID) bool { ac = append(ac, rel.Col(id)); return true })
		plans = append(plans, [2][]int{zc, ac})
	}
	return plans
}

// Prepare indexes rel, which must be a chase fixpoint with canonical
// values (as produced by Result.Relation()). fds must be the FD set the
// fixpoint was computed under.
func Prepare(rel *relation.Relation, fds []dep.FD) *Prepared {
	return PrepareWithPlans(rel, fds, PlanFDs(rel, fds))
}

// PrepareWithPlans is Prepare with the column plans precomputed (see
// Plans); plans must have been computed for fds over a relation with
// rel's attribute set.
func PrepareWithPlans(rel *relation.Relation, fds []dep.FD, plans Plans) *Prepared {
	p := &Prepared{rel: rel, plans: plans, valueRows: make(map[value.Value][]int)}
	p.baseBuckets = make([]*bucketTable, len(p.plans))
	p.baseNext = make([][]int, len(p.plans))
	for fi, plan := range p.plans {
		bt := newBucketTable(rel.Len())
		nx := make([]int, rel.Len())
		rel.Each(func(ri int, row relation.Tuple) bool {
			h := zHash(row, plan[0], nil)
			for j := bt.get(h); j >= 0; j = nx[j] {
				if zEqual(rel.Tuple(j), row, plan[0], nil) {
					return true
				}
			}
			nx[ri] = bt.put(h, ri)
			return true
		})
		p.baseBuckets[fi] = bt
		p.baseNext[fi] = nx
	}
	rel.Each(func(ri int, row relation.Tuple) bool {
		seen := map[value.Value]bool{}
		for _, v := range row {
			if !seen[v] {
				seen[v] = true
				p.valueRows[v] = append(p.valueRows[v], ri)
			}
		}
		return true
	})
	return p
}

// zHash hashes the given columns of a row, resolving each value through
// the overlay when ov is non-nil.
func zHash(row relation.Tuple, cols []int, ov *Overlay) uint64 {
	h := uint64(hashSeed)
	for _, c := range cols {
		v := row[c]
		if ov != nil {
			v = ov.findBase(v)
		}
		h = hashVal(h, uint64(v))
	}
	return hashMix(h)
}

// zEqual compares two rows on the given columns, resolving through the
// overlay when ov is non-nil.
func zEqual(a, b relation.Tuple, cols []int, ov *Overlay) bool {
	for _, c := range cols {
		va, vb := a[c], b[c]
		if ov != nil {
			va, vb = ov.findBase(va), ov.findBase(vb)
		}
		if va != vb {
			return false
		}
	}
	return true
}

// Overlay is the result of imposing equalities on a Prepared fixpoint:
// a union-find layered over the base values, closed under the FDs.
type Overlay struct {
	p       *Prepared
	parent  map[value.Value]value.Value
	members map[value.Value][]value.Value
	clash   bool
	// overlayBuckets[fi] maps overlay Z-key hashes discovered during
	// propagation to representative rows (one per distinct key; a list
	// because distinct keys can share a hash).
	overlayBuckets []map[uint64][]int
}

// WithEqualities imposes the given value pairs (over the base relation's
// canonical values) and propagates the FDs to a new fixpoint. The
// receiver is not modified; each call returns an independent overlay.
func (p *Prepared) WithEqualities(pairs [][2]value.Value) *Overlay {
	ov := &Overlay{
		p:              p,
		parent:         make(map[value.Value]value.Value),
		members:        make(map[value.Value][]value.Value),
		overlayBuckets: make([]map[uint64][]int, len(p.plans)),
	}
	for i := range ov.overlayBuckets {
		ov.overlayBuckets[i] = make(map[uint64][]int)
	}
	var queue []value.Value
	for _, pr := range pairs {
		if loser, changed := ov.union(pr[0], pr[1]); changed {
			queue = append(queue, loser)
		}
		if ov.clash {
			return ov
		}
	}
	//constvet:allow budgetloop -- each pop merges two classes or re-derives nothing; pushes are bounded by the number of merges, which is bounded by the number of distinct values
	for len(queue) > 0 {
		loser := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Rows containing any member of the loser's (pre-merge) class.
		// Visited in sorted order: iteration feeds ov.union, and the
		// merge order decides class representatives and members order.
		rows := map[int]bool{}
		for _, v := range ov.classMembers(loser) {
			for _, ri := range p.valueRows[v] {
				rows[ri] = true
			}
		}
		order := make([]int, 0, len(rows))
		for ri := range rows {
			order = append(order, ri)
		}
		sort.Ints(order)
		for _, ri := range order {
			row := p.rel.Tuple(ri)
			for fi, plan := range p.plans {
				h := zHash(row, plan[0], ov)
				other := -1
				for _, cand := range ov.overlayBuckets[fi][h] {
					if zEqual(p.rel.Tuple(cand), row, plan[0], ov) {
						other = cand
						break
					}
				}
				if other < 0 {
					// Fall back to the base chains: a representative whose
					// resolved key equals this row's (verified, so it does
					// not matter that chains are keyed by base hashes).
					nx := p.baseNext[fi]
					for j := p.baseBuckets[fi].get(h); j >= 0; j = nx[j] {
						if zEqual(p.rel.Tuple(j), row, plan[0], ov) {
							other = j
							break
						}
					}
				}
				if other < 0 {
					ov.overlayBuckets[fi][h] = append(ov.overlayBuckets[fi][h], ri)
					continue
				}
				if other == ri {
					continue
				}
				otherRow := p.rel.Tuple(other)
				for _, c := range plan[1] {
					if l, changed := ov.union(row[c], otherRow[c]); changed {
						queue = append(queue, l)
					}
					if ov.clash {
						return ov
					}
				}
			}
		}
	}
	return ov
}

// classMembers returns the base values currently in v's class (including
// v itself).
func (ov *Overlay) classMembers(v value.Value) []value.Value {
	r := ov.findBase(v)
	out := append([]value.Value{r}, ov.members[r]...)
	return out
}

// findBase resolves a base-canonical value through the overlay.
func (ov *Overlay) findBase(v value.Value) value.Value {
	for {
		n, ok := ov.parent[v]
		if !ok {
			return v
		}
		v = n
	}
}

// union merges the overlay classes of a and b. It reports the losing
// representative and whether a merge happened; a constant/constant merge
// sets the clash flag instead.
func (ov *Overlay) union(a, b value.Value) (value.Value, bool) {
	ra, rb := ov.findBase(a), ov.findBase(b)
	if ra == rb {
		return 0, false
	}
	if ra.IsConst() && rb.IsConst() {
		ov.clash = true
		return 0, false
	}
	if rb.IsConst() || (!ra.IsConst() && rb > ra) {
		ra, rb = rb, ra
	}
	ov.parent[rb] = ra
	ov.members[ra] = append(ov.members[ra], rb)
	ov.members[ra] = append(ov.members[ra], ov.members[rb]...)
	delete(ov.members, rb)
	return rb, true
}

// ConstClash reports whether the imposition forced two distinct constants
// equal.
func (ov *Overlay) ConstClash() bool { return ov.clash }

// Same reports whether two values (given in base-canonical form) are
// equal under the overlay.
func (ov *Overlay) Same(a, b value.Value) bool {
	return ov.findBase(a) == ov.findBase(b)
}
