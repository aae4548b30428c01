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
	return PrepareWithPlans(rel, PlanFDs(rel, fds))
}

// PrepareWithPlans is Prepare with the column plans precomputed (see
// Plans); plans must have been computed for the fixpoint's FD set over
// a relation with rel's attribute set.
func PrepareWithPlans(rel *relation.Relation, plans Plans) *Prepared {
	p := &Prepared{rel: rel, plans: plans, valueRows: make(map[value.Value][]int)}
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

// WithEqualities imposes the given value pairs (over the base relation's
// canonical values) and propagates the FDs to a new fixpoint. The
// receiver is not modified; each call returns an independent overlay.
func (p *Prepared) WithEqualities(pairs [][2]value.Value) *Overlay {
	return impose(p, p.plans, pairs)
}

// find is the identity: a Prepared relation is already canonical.
func (p *Prepared) find(v value.Value) value.Value { return v }

func (p *Prepared) row(id int) relation.Tuple { return p.rel.Tuple(id) }

func (p *Prepared) addRows(rows map[int]bool, v value.Value) {
	for _, ri := range p.valueRows[v] {
		rows[ri] = true
	}
}

// fixpoint is a chase fixpoint an Overlay can be layered over: a batch
// Prepared or a Maintained one. Rows are addressed by id.
type fixpoint interface {
	// find resolves a raw value to its fixpoint representative.
	find(v value.Value) value.Value
	// row returns the tuple of a live row.
	row(id int) relation.Tuple
	// addRows adds to rows the live rows holding a raw value of the
	// class of the fixpoint representative v.
	addRows(rows map[int]bool, v value.Value)
}

// Overlay is the result of imposing equalities on a chase fixpoint (a
// Prepared or a Maintained one) without mutating it: a union-find over
// the fixpoint's representatives, closed under the FDs. The exact
// translatability tests impose one per candidate (f, r) pair.
type Overlay struct {
	base    fixpoint
	parent  map[value.Value]value.Value
	members map[value.Value][]value.Value
	clash   bool
	// overlayBuckets[fi] maps overlay Z-key hashes discovered during
	// propagation to representative rows (one per distinct key; a list
	// because distinct keys can share a hash).
	overlayBuckets []map[uint64][]int
}

// impose imposes the value pairs (over base's representatives) on base
// and propagates the FDs of plans to a new fixpoint: each merge sends
// the rows holding a value of the merged class through every plan's
// probe of the overlay's own buckets.
//
// Those buckets are the only partner lookup, by a revisit invariant:
// each merge revisits every row holding any value of the merged class,
// the winner's values included, so every row whose Z-key the overlay
// changes is visited after the last merge that changed it. Two rows
// whose Z-keys are equal under the overlay but not in base differ in
// base on some Z column whose two values the overlay merged, so both
// are visited with their final keys, and the later visit finds the
// earlier row, or the row it joined, in the bucket of their common key.
// Rows whose Z-keys are already equal in base agree on A in the base
// fixpoint and need no partner. So the base's buckets are never probed.
func impose(base fixpoint, plans Plans, pairs [][2]value.Value) *Overlay {
	ov := &Overlay{
		base:           base,
		parent:         make(map[value.Value]value.Value),
		members:        make(map[value.Value][]value.Value),
		overlayBuckets: make([]map[uint64][]int, len(plans)),
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
		// Rows containing any member of the merged class the loser now
		// belongs to, the winner's values included (the revisit
		// invariant above). Visited in sorted order: iteration feeds
		// ov.union, and the merge order decides the members order.
		rows := map[int]bool{}
		r := ov.resolve(loser)
		base.addRows(rows, r)
		for _, v := range ov.members[r] {
			base.addRows(rows, v)
		}
		order := make([]int, 0, len(rows))
		for ri := range rows {
			order = append(order, ri)
		}
		sort.Ints(order)
		for _, ri := range order {
			row := base.row(ri)
			for fi, plan := range plans {
				h := ov.zHash(row, plan[0])
				other := -1
				for _, cand := range ov.overlayBuckets[fi][h] {
					if ov.zEqual(base.row(cand), row, plan[0]) {
						other = cand
						break
					}
				}
				if other < 0 {
					ov.overlayBuckets[fi][h] = append(ov.overlayBuckets[fi][h], ri)
					continue
				}
				if other == ri {
					continue
				}
				otherRow := base.row(other)
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

// resolve maps a raw value through the base then the overlay union-find.
func (ov *Overlay) resolve(v value.Value) value.Value {
	v = ov.base.find(v)
	for {
		n, ok := ov.parent[v]
		if !ok {
			return v
		}
		v = n
	}
}

// zHash hashes the given columns of a row under overlay resolution.
func (ov *Overlay) zHash(row relation.Tuple, cols []int) uint64 {
	h := relation.HashSeed
	for _, c := range cols {
		h = relation.HashWord(h, ov.resolve(row[c]))
	}
	return relation.HashFinish(h)
}

// zEqual compares two rows on the given columns under overlay
// resolution.
func (ov *Overlay) zEqual(a, b relation.Tuple, cols []int) bool {
	for _, c := range cols {
		if ov.resolve(a[c]) != ov.resolve(b[c]) {
			return false
		}
	}
	return true
}

// union merges the overlay classes of a and b under outranks'
// tie-break. It reports the losing representative and whether a merge
// happened; a constant/constant merge sets the clash flag instead.
func (ov *Overlay) union(a, b value.Value) (value.Value, bool) {
	ra, rb := ov.resolve(a), ov.resolve(b)
	if ra == rb {
		return 0, false
	}
	if ra.IsConst() && rb.IsConst() {
		ov.clash = true
		return 0, false
	}
	if outranks(rb, ra) {
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

// Same reports whether two values (given in the base's canonical form)
// are equal under the overlay.
func (ov *Overlay) Same(a, b value.Value) bool {
	return ov.resolve(a) == ov.resolve(b)
}
