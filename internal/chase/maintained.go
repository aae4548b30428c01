package chase

import (
	"sort"

	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Maintained is a chase fixpoint maintained under row insertions and
// deletions, the delta-scoped counterpart of Instance + Prepare: instead
// of re-padding and re-chasing a whole relation per update — O(|Σ|·|R|)
// even when one row changed — a Maintained adds or removes one row and
// propagates only from the values that actually changed, so the work is
// proportional to the delta's affected partition.
//
// Rows are raw tuples (constants and labeled nulls); the union-find over
// values carries the chase merges, exactly as Result does for a batch
// chase. Because the merge tie-break (constants win; among nulls the
// numerically larger, i.e. smaller-index, value wins) picks the numeric
// maximum of a class, canonical representatives are order-independent:
// a Maintained built by any sequence of AddRow/RemoveRow resolves every
// value exactly as a fresh batch chase of the surviving rows would.
// Both union-finds are kept flat — a merge re-points every moved member
// straight at the new root — so Find is one map hop and a removal can
// drop a member, or re-pick a root, without re-parenting a subtree.
//
// Precondition for RemoveRow: distinct rows must not share labeled
// nulls (each row's nulls are fresh, as produced by value.NullGen —
// constants may repeat freely). FD merges then only link rows within a
// connected component. Most removals detach the row in time
// proportional to its own classes and groups; the rest reset and
// re-derive the affected component (see RemoveRow).
type Maintained struct {
	plans Plans
	// aPlans[c] counts the plans whose A holds column c: a null in a
	// column of two could bridge two FD groups' cliques.
	aPlans []int
	// rows holds the raw tuples; nil marks a free slot. free lists the
	// slots removals vacated, reused (last first) by AddRow.
	rows  []relation.Tuple
	alive int
	free  []int
	// entries counts the row ids stored across buckets: a live row
	// holds at most one per plan, so any excess is stale entries left
	// behind by rows whose Z-hash moved (see Wasteful).
	entries int
	// parent/members: flat union-find over values (raw granularity):
	// every non-root maps straight to its root, and members lists a
	// root's non-roots.
	parent  map[value.Value]value.Value
	members map[value.Value][]value.Value
	clash   bool
	// nullRepeat latches once some added row held one null in two
	// columns. Until then every null-rooted class holds nulls of a
	// single column, so re-picking its root moves no Z-hash.
	nullRepeat bool
	// buckets[fi] maps Z-key hashes (canonical at insertion time) to row
	// ids; each live Z-group keeps at least one member filed under its
	// current hash. A removal takes its row out of the bucket of its
	// current hash; entries a row left under an earlier hash go stale,
	// and so may an entry whose slot was reused. Every probe re-verifies
	// with zEqual under the current resolution, so staleness costs
	// space, never correctness.
	buckets []map[uint64][]int
	// valueRows maps each raw value to the live rows containing it, in
	// insertion order; a removal takes its row out of its values' lists.
	valueRows map[value.Value][]int
	// rowParent/rowMembers: flat union-find over rows, tracking the
	// connected components the FD merges induce (a detach leaves the
	// survivors in one component even when the row was their only link,
	// so a component may be a union of true ones); RemoveRow's fallback
	// re-chases one component.
	rowParent  []int
	rowMembers map[int][]int
}

// NewMaintained returns an empty maintained fixpoint for the FD column
// plans (see PlanFDs; plans must be over the row layout of AddRow's
// tuples).
func NewMaintained(plans Plans) *Maintained {
	m := &Maintained{
		plans:      plans,
		parent:     make(map[value.Value]value.Value),
		members:    make(map[value.Value][]value.Value),
		buckets:    make([]map[uint64][]int, len(plans)),
		valueRows:  make(map[value.Value][]int),
		rowMembers: make(map[int][]int),
	}
	for i := range m.buckets {
		m.buckets[i] = make(map[uint64][]int)
	}
	for _, plan := range plans {
		for _, c := range plan[1] {
			for len(m.aPlans) <= c {
				m.aPlans = append(m.aPlans, 0)
			}
			m.aPlans[c]++
		}
	}
	return m
}

// Alive reports the number of live rows.
func (m *Maintained) Alive() int { return m.alive }

// ConstClash reports whether the chase has equated two distinct
// constants; once latched the fixpoint is unusable and callers should
// rebuild from a consistent instance.
func (m *Maintained) ConstClash() bool { return m.clash }

// Wasteful reports whether free slots or stale bucket entries have
// piled up enough that rebuilding from the live rows would pay for
// itself: after the live set shrank to well under its peak, or after
// merges moved enough rows' Z-hashes. A stationary stream of additions
// and removals reuses the slots it frees and removes its rows' entries
// and never gets here. Callers invalidate and rebuild; Maintained never
// compacts in place.
func (m *Maintained) Wasteful() bool {
	return len(m.free)*2 > m.alive+16 || m.entries > 2*len(m.plans)*m.alive+64
}

// Find resolves a value to its canonical representative: one hop, as
// the union-find is flat.
func (m *Maintained) Find(v value.Value) value.Value {
	if r, ok := m.parent[v]; ok {
		return r
	}
	return v
}

// Cell returns the canonical value of column c of live row id.
func (m *Maintained) Cell(id, c int) value.Value {
	return m.Find(m.rows[id][c])
}

// Row returns the raw tuple of row id (nil if its slot is free).
// Callers must not modify it.
func (m *Maintained) Row(id int) relation.Tuple { return m.rows[id] }

// AddRow inserts a raw row (taking ownership) and propagates the FDs to
// a new fixpoint. It returns the row's id, valid until the row is
// removed (a later AddRow may then reuse it). After a constant clash the
// fixpoint is latched broken and further propagation is skipped.
func (m *Maintained) AddRow(row relation.Tuple) int {
	var ri int
	if n := len(m.free); n > 0 {
		// A freed slot: RemoveRow reset its row-component links and took
		// its id out of every list that named it under its current hash.
		ri = m.free[n-1]
		m.free = m.free[:n-1]
		m.rows[ri] = row
	} else {
		ri = len(m.rows)
		m.rows = append(m.rows, row)
		m.rowParent = append(m.rowParent, ri)
	}
	m.alive++
	seen := make(map[value.Value]bool, len(row))
	for _, v := range row {
		if !seen[v] {
			seen[v] = true
			m.valueRows[v] = append(m.valueRows[v], ri)
		} else if v.IsNull() {
			m.nullRepeat = true
		}
	}
	if !m.clash {
		m.run([]int{ri})
	}
	return ri
}

// RemoveRow deletes a live row and restores the fixpoint of the
// survivors, by one of two paths.
//
// Detach, when the fixpoint has not clashed and the row satisfies all
// of:
//   - every plan has a Z, and the row's Z cells are raw constants;
//   - each of its nulls sits in exactly one of its columns, and that
//     column (in no plan's Z, by the first rule) is in the A of at most
//     one plan;
//   - for every plan whose Z-group (the live rows agreeing with it on Z)
//     has another live member, its A cells are nulls;
//   - a null of the row that roots a class with other members needs no
//     live row ever to have repeated a null across columns.
//
// Then the row's equalities only tie its own nulls to cliques the
// survivors still derive on their own. Its Z-keys are constants, so its
// group in each plan is fixed. A plan whose group holds only the row
// equates nothing. In any other plan the row's A cells are nulls, and
// the chase equates each with the A cells of the other members, which
// the survivors equate among themselves without it. Each such null
// appears nowhere else and in no Z column, so its class membership
// moves no Z-key and enables no further match. Hence the survivors'
// fixpoint is the current one minus the row's nulls: each null leaves
// its class, a class root is re-picked as the numeric maximum of the
// rest (the union tie-break, so batch parity holds), each bucket the row
// was filed in gets a survivor of its group filed if none is left, the
// row leaves its row component, and its slot is freed. While no row
// repeats a null, a null-rooted class holds nulls of one non-Z column
// only, so the re-pick moves no Z-hash either.
//
// Otherwise the row's connected component is reset to its raw values
// and re-chased, which is exactly a fresh chase of the component minus
// the row (no other component's classes are touched — see the
// fresh-nulls precondition).
func (m *Maintained) RemoveRow(id int) {
	if id < 0 || id >= len(m.rows) || m.rows[id] == nil {
		return
	}
	if m.detachable(id) {
		m.detach(id)
		if mt := cmetrics.Load(); mt != nil {
			mt.maintainedDetach.Inc()
		}
		return
	}
	rows := m.rechase(id)
	if mt := cmetrics.Load(); mt != nil {
		mt.maintainedRechase.Inc()
		mt.maintainedRechaseRows.Add(int64(rows))
	}
}

// detachable reports whether RemoveRow may detach row id (see there).
func (m *Maintained) detachable(id int) bool {
	if m.clash {
		return false
	}
	row := m.rows[id]
	for c, v := range row {
		if !v.IsNull() {
			continue
		}
		if c < len(m.aPlans) && m.aPlans[c] > 1 {
			return false
		}
		for _, w := range row[c+1:] {
			if w == v {
				return false
			}
		}
		if m.nullRepeat && len(m.members[v]) > 0 {
			return false
		}
	}
	for _, plan := range m.plans {
		if len(plan[0]) == 0 {
			return false
		}
		for _, c := range plan[0] {
			if row[c].IsNull() {
				return false
			}
		}
		for _, c := range plan[1] {
			if !row[c].IsNull() {
				if m.groupSurvivor(id, plan[0]) >= 0 {
					return false
				}
				break
			}
		}
	}
	return true
}

// detach removes row id along the detach path of RemoveRow.
func (m *Maintained) detach(id int) {
	row := m.rows[id]
	for _, v := range row {
		if v.IsNull() {
			m.dropNull(v)
		}
		without(m.valueRows, v, id)
	}
	for fi, plan := range m.plans {
		h := m.zHashRow(row, plan[0])
		n := without(m.buckets[fi], h, id)
		if n == 0 {
			continue
		}
		m.entries -= n
		if other, _ := m.probe(fi, h, row, plan[0], id); other >= 0 {
			continue
		}
		if s := m.groupSurvivor(id, plan[0]); s >= 0 {
			m.buckets[fi][h] = append(m.buckets[fi][h], s)
			m.entries++
		}
	}
	if r := m.rowParent[id]; r != id {
		without(m.rowMembers, r, id)
	} else if mem := m.rowMembers[id]; len(mem) > 0 {
		// The component root leaves: the smallest member takes over, as
		// rowUnion would pick it.
		delete(m.rowMembers, id)
		root, rest := successor(mem, func(a, b int) bool { return a < b })
		m.rowParent[root] = root
		for _, x := range rest {
			m.rowParent[x] = root
		}
		if len(rest) > 0 {
			m.rowMembers[root] = rest
		}
	}
	m.rowParent[id] = id
	m.rows[id] = nil
	m.free = append(m.free, id)
	m.alive--
}

// dropNull takes the null v out of its class. A non-root just leaves
// its root's member list; a root hands the class to the numeric maximum
// of the rest — the value union would have picked without v.
func (m *Maintained) dropNull(v value.Value) {
	if r, ok := m.parent[v]; ok {
		delete(m.parent, v)
		without(m.members, r, v)
		return
	}
	mem := m.members[v]
	if len(mem) == 0 {
		return
	}
	delete(m.members, v)
	root, rest := successor(mem, func(a, b value.Value) bool { return a > b })
	delete(m.parent, root)
	for _, x := range rest {
		m.parent[x] = root
	}
	if len(rest) > 0 {
		m.members[root] = rest
	}
}

// successor splits a departing root's member list into the member
// that takes over — the one no other beats — and the rest, in order,
// reusing mem's storage.
func successor[T any](mem []T, beats func(a, b T) bool) (T, []T) {
	top := 0
	for i, x := range mem {
		if beats(x, mem[top]) {
			top = i
		}
	}
	root := mem[top]
	return root, append(mem[:top], mem[top+1:]...)
}

// probe returns the first live row other than self filed in bucket h
// of plan fi that agrees with row on the Z columns z under the current
// resolution (-1 if none), and whether self is filed there. An entry of
// self does not stand for its group: a re-chase can leave a row filed
// under a hash its Z-key later resolves to again, ahead of members it
// is not merged with.
func (m *Maintained) probe(fi int, h uint64, row relation.Tuple, z []int, self int) (other int, filed bool) {
	for _, cand := range m.buckets[fi][h] {
		switch {
		case cand == self:
			filed = true
		case m.rows[cand] != nil && m.zEqualRows(m.rows[cand], row, z):
			return cand, filed
		}
	}
	return -1, filed
}

// groupSurvivor returns a live row other than id that agrees with it on
// the Z columns z under the current resolution, or -1. Every such row
// holds, in column z[0], a raw value of the class of id's z[0] cell, so
// the scan stays within that class's valueRows.
func (m *Maintained) groupSurvivor(id int, z []int) int {
	row := m.rows[id]
	r := m.Find(row[z[0]])
	mem := m.members[r]
	for i := -1; i < len(mem); i++ {
		v := r
		if i >= 0 {
			v = mem[i]
		}
		for _, ri := range m.valueRows[v] {
			if ri != id && m.rows[ri] != nil && m.zEqualRows(m.rows[ri], row, z) {
				return ri
			}
		}
	}
	return -1
}

// rechase removes row id along the fallback path of RemoveRow and
// returns the number of surviving rows it re-chased.
func (m *Maintained) rechase(id int) int {
	comp := m.componentOf(id)
	// Take the row out of the lists that name it, under the resolution
	// its entries were filed with, so its slot can be reused and the
	// lists stay the size of the live rows.
	row := m.rows[id]
	for fi, plan := range m.plans {
		m.entries -= without(m.buckets[fi], m.zHashRow(row, plan[0]), id)
	}
	for _, v := range row {
		without(m.valueRows, v, id)
	}
	// Reset the component's null classes. Null-rooted classes are
	// component-local (cross-component classes arise only through a
	// constant representative), so deleting exactly these links restores
	// the pre-chase state of the component and nothing else.
	resetSet := make(map[value.Value]bool)
	for _, ri := range comp {
		for _, v := range m.rows[ri] {
			if v.IsNull() {
				resetSet[v] = true
			}
		}
	}
	reset := make([]value.Value, 0, len(resetSet))
	for v := range resetSet {
		reset = append(reset, v)
	}
	sort.Slice(reset, func(i, j int) bool { return reset[i] < reset[j] })
	rootSet := make(map[value.Value]bool)
	for _, v := range reset {
		rootSet[m.Find(v)] = true
	}
	for _, v := range reset {
		delete(m.parent, v)
	}
	roots := make([]value.Value, 0, len(rootSet))
	for v := range rootSet {
		roots = append(roots, v)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		if resetSet[r] {
			// A null root of this component; its whole class was local.
			delete(m.members, r)
			continue
		}
		// A constant root may carry nulls of other components: keep them.
		var kept []value.Value
		for _, v := range m.members[r] {
			if !resetSet[v] {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			delete(m.members, r)
		} else {
			m.members[r] = kept
		}
	}
	for _, ri := range comp {
		m.rowParent[ri] = ri
		delete(m.rowMembers, ri)
	}
	m.rows[id] = nil
	m.free = append(m.free, id)
	m.alive--
	if m.clash {
		return 0
	}
	seeds := make([]int, 0, len(comp)-1)
	for _, ri := range comp {
		if ri != id {
			seeds = append(seeds, ri)
		}
	}
	m.run(seeds)
	return len(seeds)
}

// without removes every occurrence of x from the list lists[k], in
// place and keeping order, drops the key once its list is empty, and
// returns how many entries it removed.
func without[K, V comparable](lists map[K][]V, k K, x V) int {
	xs := lists[k]
	out := xs[:0]
	for _, y := range xs {
		if y != x {
			out = append(out, y)
		}
	}
	if len(out) == 0 {
		delete(lists, k)
	} else {
		lists[k] = out
	}
	return len(xs) - len(out)
}

// run drives the worklist: visit the seed rows, then revisit the rows
// holding each raw value whose representative changed. Only those rows
// can change their Z-hash, and any new FD match involves one of them:
// a row whose values all keep their representatives keeps its hash, so
// its partner — revisited because its own hash moved — finds it through
// the bucket probe (which re-verifies under the current resolution).
// The work is therefore proportional to the values that changed, not
// to the size of the merged class.
func (m *Maintained) run(seeds []int) {
	sort.Ints(seeds)
	var queue []value.Value
	for _, ri := range seeds {
		queue = m.visitRow(ri, queue)
		if m.clash {
			return
		}
	}
	//constvet:allow budgetloop -- each pushed value changed its representative in a merge; merges are bounded by the number of distinct values, and a value is re-pushed only when its class loses again
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// valueRows lists row ids in insertion order, so the visit (and
		// merge) order stays deterministic.
		for _, ri := range m.valueRows[v] {
			queue = m.visitRow(ri, queue)
			if m.clash {
				return
			}
		}
	}
}

// visitRow re-derives row ri's FD matches under the current resolution,
// merging A-columns with the first row sharing each Z-key and queueing
// the raw values whose representative the merges changed.
func (m *Maintained) visitRow(ri int, queue []value.Value) []value.Value {
	row := m.rows[ri]
	if row == nil {
		return queue
	}
	for fi, plan := range m.plans {
		h := m.zHashRow(row, plan[0])
		other, filed := m.probe(fi, h, row, plan[0], ri)
		if other < 0 {
			if !filed {
				m.buckets[fi][h] = append(m.buckets[fi][h], ri)
				m.entries++
			}
			continue
		}
		m.rowUnion(ri, other)
		otherRow := m.rows[other]
		for _, c := range plan[1] {
			queue = m.union(row[c], otherRow[c], queue)
			if m.clash {
				return queue
			}
		}
	}
	return queue
}

// zHashRow hashes the resolved values of the given columns.
func (m *Maintained) zHashRow(row relation.Tuple, cols []int) uint64 {
	h := relation.HashSeed
	for _, c := range cols {
		h = relation.HashWord(h, m.Find(row[c]))
	}
	return relation.HashFinish(h)
}

// zEqualRows compares two rows on the given columns under resolution.
func (m *Maintained) zEqualRows(a, b relation.Tuple, cols []int) bool {
	for _, c := range cols {
		if m.Find(a[c]) != m.Find(b[c]) {
			return false
		}
	}
	return true
}

// union merges the classes of a and b under outranks' tie-break. It
// appends to queue the raw values whose representative changed — the
// losing class, representative included — and returns it, having
// re-pointed each of them straight at the winner; a constant/constant
// merge latches the clash flag instead.
func (m *Maintained) union(a, b value.Value, queue []value.Value) []value.Value {
	ra, rb := m.Find(a), m.Find(b)
	if ra == rb {
		return queue
	}
	if ra.IsConst() && rb.IsConst() {
		m.clash = true
		return queue
	}
	if outranks(rb, ra) {
		ra, rb = rb, ra
	}
	moved := m.members[rb]
	m.parent[rb] = ra
	for _, v := range moved {
		m.parent[v] = ra
	}
	m.members[ra] = append(append(m.members[ra], rb), moved...)
	delete(m.members, rb)
	return append(append(queue, rb), moved...)
}

// rowUnion merges two row components (smaller root wins, for
// determinism of componentOf), re-pointing the loser's rows straight at
// the new root.
func (m *Maintained) rowUnion(a, b int) {
	ra, rb := m.rowParent[a], m.rowParent[b]
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	moved := m.rowMembers[rb]
	m.rowParent[rb] = ra
	for _, ri := range moved {
		m.rowParent[ri] = ra
	}
	m.rowMembers[ra] = append(append(m.rowMembers[ra], rb), moved...)
	delete(m.rowMembers, rb)
}

// componentOf returns the sorted live row ids of id's component.
func (m *Maintained) componentOf(id int) []int {
	r := m.rowParent[id]
	out := append([]int{r}, m.rowMembers[r]...)
	sort.Ints(out)
	return out
}

// WithEqualities imposes the given value pairs (over canonical values)
// and propagates the FDs to a new fixpoint layered over the maintained
// one. The receiver is not modified; each call returns an independent
// overlay. It must not be called on a clashed Maintained.
func (m *Maintained) WithEqualities(pairs [][2]value.Value) *Overlay {
	return impose(m, m.plans, pairs)
}

func (m *Maintained) find(v value.Value) value.Value { return m.Find(v) }

func (m *Maintained) row(id int) relation.Tuple { return m.rows[id] }

func (m *Maintained) addRows(rows map[int]bool, v value.Value) {
	for i := -1; i < len(m.members[v]); i++ {
		rv := v
		if i >= 0 {
			rv = m.members[v][i]
		}
		for _, ri := range m.valueRows[rv] {
			if m.rows[ri] != nil {
				rows[ri] = true
			}
		}
	}
}
