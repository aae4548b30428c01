package chase

import (
	"math"
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
// straight at the new root — so a removal can drop a member, or re-pick
// a root, without re-parenting a subtree.
//
// All state lives in dense slices; no map is keyed by a value or a row.
// A Value is already a dense id: a constant is its interned id (≥ 0), a
// null Null(i) has NullIndex i. So every value-keyed array comes in two
// halves, constants at their id and nulls at their NullIndex, and Find
// is one slice index. A constant is always a root (it outranks every
// null, and a merge of two constants clashes), so only nulls have a
// parent entry. The lists keyed by a value (a root's members, the rows
// holding a value) and a root row's component are circular doubly linked
// lists threaded through the dense node space (see chain), so adding or
// dropping one element costs O(1) and allocates nothing. Rows are copied
// into an arena of fixed-size chunks, indexed by row slot. The FD
// buckets are growing relation.HeadTables keyed by Z-hash, whose chains
// run through a pool of entries.
//
// The halves are sized by the largest constant id and null index ever
// added, not by the live rows: a caller that draws every row's nulls
// fresh from a value.NullGen grows the null half with its op count. The
// incremental session (core) recycles a removed row's nulls for the next
// row it pads, which bounds the null half by its peak live rows times
// the padded width; its constants are interned, so the constant half is
// bounded by its symbol table.
//
// Precondition: distinct live rows must not share labeled nulls (each
// row's nulls are fresh, as produced by value.NullGen, or recycled from
// a removed row — constants may repeat freely). FD merges then only link
// rows within a connected component. Most removals detach the row in
// time proportional to its own classes and groups; the rest reset and
// re-derive the affected component (see RemoveRow).
type Maintained struct {
	plans Plans
	// aPlans[c] counts the plans whose A holds column c: a null in a
	// column of two could bridge two FD groups' cliques.
	aPlans []int
	// w is the row width, fixed by the first AddRow.
	w int
	// rows[ri] is the live row in slot ri, a window of arena; nil marks a
	// free slot. free lists the slots removals vacated, reused (last
	// first) by AddRow.
	rows  []relation.Tuple
	arena [][]value.Value
	alive int
	free  []int
	// entries counts the bucket entries in use: a live row holds at most
	// one per plan, so any excess is stale entries left behind by rows
	// whose Z-hash moved (see Wasteful).
	entries int
	clash   bool
	// nullRepeat latches once some added row held one null in two
	// columns. Until then every null-rooted class holds nulls of a
	// single column, so re-picking its root moves no Z-hash.
	nullRepeat bool
	// buckets[fi] maps Z-key hashes (canonical at insertion time) to the
	// first of a chain of entries in filed, each naming a row id; each
	// live Z-group keeps at least one member filed under its current
	// hash. A removal takes its row out of the chain of its current
	// hash; entries a row left under an earlier hash go stale, and so
	// may an entry whose slot was reused. Every probe re-verifies with
	// zEqual under the current resolution, so staleness costs space,
	// never correctness. freeFiled heads the list of unused entries
	// (-1 when empty).
	buckets   []*relation.HeadTable
	filed     []filing
	freeFiled int32
	// parent[i] is null i's root: itself while it roots its class or
	// holds no entry.
	parent []value.Value
	// cMembers/nMembers head each root's list of non-root members (all
	// nulls, linked by null index through member).
	cMembers, nMembers []int32
	member             chain
	// cRows/nRows head each value's list of the live rows holding it,
	// in insertion order: the list links the cell ri*w+c of the value's
	// first column in row ri, through cell.
	cRows, nRows []int32
	cell         chain
	// rowParent/rowMembers: flat union-find over rows, tracking the
	// connected components the FD merges induce (a detach leaves the
	// survivors in one component even when the row was their only link,
	// so a component may be a union of true ones); RemoveRow's fallback
	// re-chases one component. rowMembers heads a root row's list of
	// the component's other rows, linked through rowLink.
	rowParent  []int
	rowMembers []int32
	rowLink    chain
	// queue and seeds are run's scratch, reused across calls.
	queue []value.Value
	seeds []int
}

// filing is one bucket entry: a row id and the next entry of its
// chain (-1 ends it).
type filing struct {
	row, next int32
}

// arenaRows is the number of row slots per arena chunk.
const arenaRows = 64

// NewMaintained returns an empty maintained fixpoint for the FD column
// plans (see PlanFDs; plans must be over the row layout of AddRow's
// tuples).
func NewMaintained(plans Plans) *Maintained {
	m := &Maintained{
		plans:     plans,
		buckets:   make([]*relation.HeadTable, len(plans)),
		freeFiled: -1,
	}
	for i := range m.buckets {
		m.buckets[i] = relation.NewHeadTable(0)
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

// Extent reports the lengths of the dense arrays: the row slots and the
// null half (one past the largest null index ever added). A caller that
// recycles its nulls keeps both within a constant of its peak live
// rows.
func (m *Maintained) Extent() (slots, nulls int) { return len(m.rows), len(m.parent) }

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

// Find resolves a value to its canonical representative: one slice
// index, as the union-find is flat.
func (m *Maintained) Find(v value.Value) value.Value {
	if i := -1 - int64(v); v < 0 && i < int64(len(m.parent)) {
		return m.parent[i]
	}
	return v
}

// Cell returns the canonical value of column c of live row id.
func (m *Maintained) Cell(id, c int) value.Value {
	return m.Find(m.rows[id][c])
}

// Row returns the raw tuple of row id (nil if its slot is free). It is
// the Maintained's own copy: callers must not modify it, and it changes
// once the row is removed and its slot reused.
func (m *Maintained) Row(id int) relation.Tuple { return m.rows[id] }

// AddRow copies a raw row into the fixpoint and propagates the FDs to a
// new fixpoint. It returns the row's id, valid until the row is removed
// (a later AddRow may then reuse it). After a constant clash the
// fixpoint is latched broken and further propagation is skipped. All
// rows must have the width of the first.
func (m *Maintained) AddRow(row relation.Tuple) int {
	ri := m.takeSlot(len(row))
	stored := m.rows[ri]
	copy(stored, row)
	m.alive++
	for c, v := range stored {
		if repeats(stored, c) {
			if v.IsNull() {
				m.nullRepeat = true
			}
			continue
		}
		m.hold(v)
		m.cell.pushBack(m.rowsHead(v), ri*m.w+c)
	}
	if !m.clash {
		m.seeds = append(m.seeds[:0], ri)
		m.run(m.seeds)
	}
	return ri
}

// takeSlot returns a slot for a row of width w: the last one freed, or
// a new one at the end of the arena.
func (m *Maintained) takeSlot(w int) int {
	if len(m.arena) == 0 {
		m.w = w
	} else if w != m.w {
		panic("chase: Maintained rows must all have one width")
	}
	if n := len(m.free); n > 0 {
		// A freed slot: RemoveRow reset its row-component links and took
		// it out of every list that named it.
		ri := m.free[n-1]
		m.free = m.free[:n-1]
		m.rows[ri] = m.window(ri)
		return ri
	}
	ri := len(m.rows)
	if ri*m.w >= math.MaxInt32 {
		panic("chase: Maintained row arena exceeds 2^31 cells")
	}
	if ri%arenaRows == 0 {
		m.arena = append(m.arena, make([]value.Value, arenaRows*m.w))
	}
	m.rows = append(m.rows, m.window(ri))
	m.rowParent = append(m.rowParent, ri)
	m.rowMembers = append(m.rowMembers, 0)
	m.rowLink.grow(ri + 1)
	m.cell.grow((ri + 1) * m.w)
	return ri
}

// window returns slot ri's cells in the arena.
func (m *Maintained) window(ri int) relation.Tuple {
	off := ri % arenaRows * m.w
	return m.arena[ri/arenaRows][off : off+m.w : off+m.w]
}

// repeats reports whether row[c] also sits in an earlier column.
func repeats(row relation.Tuple, c int) bool {
	for _, v := range row[:c] {
		if v == row[c] {
			return true
		}
	}
	return false
}

// hold grows the value-keyed arrays to cover v.
func (m *Maintained) hold(v value.Value) {
	if v.IsConst() {
		if n := int(v) + 1; n > len(m.cRows) {
			m.cRows = growTo(m.cRows, n)
			m.cMembers = growTo(m.cMembers, n)
		}
		return
	}
	i := v.NullIndex()
	if i >= math.MaxInt32 {
		panic("chase: Maintained null index exceeds 2^31")
	}
	for j := int64(len(m.parent)); j <= i; j++ {
		m.parent = append(m.parent, value.Null(j))
	}
	n := len(m.parent)
	m.nRows = growTo(m.nRows, n)
	m.nMembers = growTo(m.nMembers, n)
	m.member.grow(n)
}

// growTo extends s with zeros to length n.
func growTo(s []int32, n int) []int32 {
	if len(s) < n {
		s = append(s, make([]int32, n-len(s))...)
	}
	return s
}

// rowsHead returns the head of the list of rows holding v, which must
// have been held.
func (m *Maintained) rowsHead(v value.Value) *int32 {
	if v.IsConst() {
		return &m.cRows[v]
	}
	return &m.nRows[v.NullIndex()]
}

// membersHead returns the head of root r's member list, r held.
func (m *Maintained) membersHead(r value.Value) *int32 {
	if r.IsConst() {
		return &m.cMembers[r]
	}
	return &m.nMembers[r.NullIndex()]
}

// rowsOf returns the head of the list of live rows holding v, 0 when v
// was never held.
func (m *Maintained) rowsOf(v value.Value) int32 { return headOf(v, m.cRows, m.nRows) }

// membersOf returns the head of root r's member list, 0 when r was
// never held.
func (m *Maintained) membersOf(r value.Value) int32 { return headOf(r, m.cMembers, m.nMembers) }

// headOf reads v's entry in a value-keyed array of list heads, split
// into its constant and null halves; a value beyond them heads nothing.
func headOf(v value.Value, consts, nulls []int32) int32 {
	if v.IsConst() {
		if int64(v) < int64(len(consts)) {
			return consts[v]
		}
		return 0
	}
	if i := v.NullIndex(); i < int64(len(nulls)) {
		return nulls[i]
	}
	return 0
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
//
// Either way the row's nulls end with no entry: Find returns each
// unchanged, and a caller may put them in a later row.
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
		if m.nullRepeat && m.nMembers[v.NullIndex()] != 0 {
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
	for c, v := range row {
		if repeats(row, c) {
			continue
		}
		if v.IsNull() {
			m.dropNull(v)
		}
		m.cell.unlink(m.rowsHead(v), id*m.w+c)
	}
	for fi, plan := range m.plans {
		h := m.zHashRow(row, plan[0])
		if m.unfile(fi, h, id) == 0 {
			continue
		}
		if other, _ := m.probe(fi, h, row, plan[0], id); other >= 0 {
			continue
		}
		if s := m.groupSurvivor(id, plan[0]); s >= 0 {
			m.file(fi, h, s)
		}
	}
	if r := m.rowParent[id]; r != id {
		m.rowLink.unlink(&m.rowMembers[r], id)
	} else if mem := m.rowMembers[id]; mem != 0 {
		// The component root leaves: the smallest member takes over, as
		// rowUnion would pick it.
		root := m.rowLink.least(mem)
		m.rowLink.unlink(&m.rowMembers[id], root)
		m.rowMembers[root], m.rowMembers[id] = m.rowMembers[id], 0
		m.rowParent[root] = root
		rest := m.rowMembers[root]
		for x := first(rest); x >= 0; x = m.rowLink.after(rest, x) {
			m.rowParent[x] = root
		}
	}
	m.rowParent[id] = id
	m.rows[id] = nil
	m.free = append(m.free, id)
	m.alive--
}

// dropNull takes the null v out of its class. A non-root just leaves
// its root's member list; a root hands the class to the numeric maximum
// of the rest — the value union would have picked without v, which
// among nulls is the least null index.
func (m *Maintained) dropNull(v value.Value) {
	i := v.NullIndex()
	if r := m.parent[i]; r != v {
		m.parent[i] = v
		m.member.unlink(m.membersHead(r), int(i))
		return
	}
	mem := m.nMembers[i]
	if mem == 0 {
		return
	}
	s := m.member.least(mem)
	m.member.unlink(&m.nMembers[i], s)
	m.nMembers[s], m.nMembers[i] = m.nMembers[i], 0
	root := value.Null(int64(s))
	m.parent[s] = root
	rest := m.nMembers[s]
	for x := first(rest); x >= 0; x = m.member.after(rest, x) {
		m.parent[x] = root
	}
}

// file appends row ri to the chain of hash h in plan fi's buckets.
func (m *Maintained) file(fi int, h uint64, ri int) {
	e := m.freeFiled
	if e >= 0 {
		m.freeFiled = m.filed[e].next
		m.filed[e] = filing{row: int32(ri), next: -1}
	} else {
		e = int32(len(m.filed))
		m.filed = append(m.filed, filing{row: int32(ri), next: -1})
	}
	m.entries++
	b := m.buckets[fi]
	x := b.Get(h)
	if x < 0 {
		b.Set(h, int(e))
		return
	}
	for m.filed[x].next >= 0 {
		x = int(m.filed[x].next)
	}
	m.filed[x].next = e
}

// unfile takes every entry of row id out of the chain of hash h in
// plan fi's buckets, dropping the hash once its chain is empty, and
// returns how many it removed.
func (m *Maintained) unfile(fi int, h uint64, id int) int {
	b := m.buckets[fi]
	head := b.Get(h)
	n := 0
	prev := int32(-1)
	for x := int32(head); x >= 0; {
		next := m.filed[x].next
		if int(m.filed[x].row) != id {
			prev = x
			x = next
			continue
		}
		if prev < 0 {
			head = int(next)
		} else {
			m.filed[prev].next = next
		}
		m.filed[x].next = m.freeFiled
		m.freeFiled = x
		n++
		x = next
	}
	if n == 0 {
		return 0
	}
	m.entries -= n
	if head < 0 {
		b.Delete(h)
	} else {
		b.Set(h, head)
	}
	return n
}

// probe returns the first live row other than self filed in bucket h
// of plan fi that agrees with row on the Z columns z under the current
// resolution (-1 if none), and whether self is filed there. An entry of
// self does not stand for its group: a re-chase can leave a row filed
// under a hash its Z-key later resolves to again, ahead of members it
// is not merged with.
func (m *Maintained) probe(fi int, h uint64, row relation.Tuple, z []int, self int) (other int, filed bool) {
	for x := m.buckets[fi].Get(h); x >= 0; x = int(m.filed[x].next) {
		switch cand := int(m.filed[x].row); {
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
// the scan stays within the rows holding that class's values.
func (m *Maintained) groupSurvivor(id int, z []int) int {
	row := m.rows[id]
	r := m.Find(row[z[0]])
	if s := m.survivorHolding(r, id, row, z); s >= 0 {
		return s
	}
	mem := m.membersOf(r)
	for x := first(mem); x >= 0; x = m.member.after(mem, x) {
		if s := m.survivorHolding(value.Null(int64(x)), id, row, z); s >= 0 {
			return s
		}
	}
	return -1
}

// survivorHolding returns a live row other than id that holds v and
// agrees with row on the Z columns z, or -1.
func (m *Maintained) survivorHolding(v value.Value, id int, row relation.Tuple, z []int) int {
	h := m.rowsOf(v)
	for x := first(h); x >= 0; x = m.cell.after(h, x) {
		if ri := x / m.w; ri != id && m.rows[ri] != nil && m.zEqualRows(m.rows[ri], row, z) {
			return ri
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
		m.unfile(fi, m.zHashRow(row, plan[0]), id)
	}
	for c, v := range row {
		if !repeats(row, c) {
			m.cell.unlink(m.rowsHead(v), id*m.w+c)
		}
	}
	// Reset the component's null classes: every null of its rows leaves
	// its root's member list and roots itself again. Null-rooted classes
	// are component-local (cross-component classes arise only through a
	// constant representative), so a null root of the component ends
	// with its whole class reset, and a constant root keeps the nulls of
	// other components: exactly the pre-chase state of the component,
	// and nothing else.
	for _, ri := range comp {
		r := m.rows[ri]
		for c, v := range r {
			if v.IsNull() && !repeats(r, c) {
				m.resetNull(v)
			}
		}
	}
	for _, ri := range comp {
		m.rowParent[ri] = ri
		m.rowMembers[ri] = 0
	}
	m.rows[id] = nil
	m.free = append(m.free, id)
	m.alive--
	if m.clash {
		return 0
	}
	seeds := comp[:0]
	for _, ri := range comp {
		if ri != id {
			seeds = append(seeds, ri)
		}
	}
	m.run(seeds)
	return len(seeds)
}

// resetNull makes the null v root itself again, taking it out of its
// root's member list.
func (m *Maintained) resetNull(v value.Value) {
	i := v.NullIndex()
	if r := m.parent[i]; r != v {
		m.member.unlink(m.membersHead(r), int(i))
		m.parent[i] = v
	}
}

// run drives the worklist: visit the seed rows, then revisit the rows
// holding each raw value whose representative changed. Only those rows
// can change their Z-hash, and any new FD match involves one of them:
// a row whose values all keep their representatives keeps its hash, so
// its partner — revisited because its own hash moved — finds it through
// the bucket probe (which re-verifies under the current resolution).
// The work is therefore proportional to the values that changed, not
// to the size of the merged class. seeds may be m.seeds.
func (m *Maintained) run(seeds []int) {
	sort.Ints(seeds)
	m.queue = m.drain(seeds, m.queue[:0])[:0]
}

// drain visits the seed rows and works off the queue they fill, and
// returns the queue's storage for reuse.
func (m *Maintained) drain(seeds []int, queue []value.Value) []value.Value {
	for _, ri := range seeds {
		queue = m.visitRow(ri, queue)
		if m.clash {
			return queue
		}
	}
	//constvet:allow budgetloop -- each pushed value changed its representative in a merge; merges are bounded by the number of distinct values, and a value is re-pushed only when its class loses again
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Every pushed value is a null (a merge's loser and its
		// members). Its rows are listed in insertion order, so the visit
		// (and merge) order stays deterministic.
		h := m.nRows[v.NullIndex()]
		for x := first(h); x >= 0; x = m.cell.after(h, x) {
			queue = m.visitRow(x/m.w, queue)
			if m.clash {
				return queue
			}
		}
	}
	return queue
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
				m.file(fi, h, ri)
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
	// rb lost to ra, so it is a null.
	ib := rb.NullIndex()
	m.parent[ib] = ra
	queue = append(queue, rb)
	moved := m.nMembers[ib]
	for x := first(moved); x >= 0; x = m.member.after(moved, x) {
		m.parent[x] = ra
		queue = append(queue, value.Null(int64(x)))
	}
	to := m.membersHead(ra)
	m.member.pushBack(to, int(ib))
	m.member.splice(to, &m.nMembers[ib])
	return queue
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
	m.rowParent[rb] = ra
	moved := m.rowMembers[rb]
	for x := first(moved); x >= 0; x = m.rowLink.after(moved, x) {
		m.rowParent[x] = ra
	}
	m.rowLink.pushBack(&m.rowMembers[ra], rb)
	m.rowLink.splice(&m.rowMembers[ra], &m.rowMembers[rb])
}

// componentOf returns the sorted live row ids of id's component, in
// m.seeds's storage.
func (m *Maintained) componentOf(id int) []int {
	r := m.rowParent[id]
	out := append(m.seeds[:0], r)
	mem := m.rowMembers[r]
	for x := first(mem); x >= 0; x = m.rowLink.after(mem, x) {
		out = append(out, x)
	}
	sort.Ints(out)
	m.seeds = out
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
	m.markRows(rows, v)
	mem := m.membersOf(v)
	for x := first(mem); x >= 0; x = m.member.after(mem, x) {
		m.markRows(rows, value.Null(int64(x)))
	}
}

// markRows adds to rows the live rows holding the raw value v.
func (m *Maintained) markRows(rows map[int]bool, v value.Value) {
	h := m.rowsOf(v)
	for x := first(h); x >= 0; x = m.cell.after(h, x) {
		rows[x/m.w] = true
	}
}

// chain threads circular doubly linked lists through a dense node space
// (null indexes, row cells or row slots). A list is named by a head word
// holding its first node + 1, or 0 when empty, so a zeroed slice of
// heads is a slice of empty lists; next and prev are meaningful only for
// linked nodes. A node is in at most one list of a chain.
type chain struct {
	next, prev []int32
}

// grow extends the node space to n nodes.
func (l *chain) grow(n int) {
	l.next = growTo(l.next, n)
	l.prev = growTo(l.prev, n)
}

// first returns the first node of the list headed by head, or -1.
func first(head int32) int { return int(head) - 1 }

// after returns the node after x in the list headed by head, or -1 at
// its end. The list must not change while it is walked.
func (l *chain) after(head int32, x int) int {
	if n := l.next[x]; n != head-1 {
		return int(n)
	}
	return -1
}

// least returns the smallest node of the non-empty list headed by head.
func (l *chain) least(head int32) int {
	s := first(head)
	for x := s; x >= 0; x = l.after(head, x) {
		s = min(s, x)
	}
	return s
}

// pushBack appends node x to the list *head.
func (l *chain) pushBack(head *int32, x int) {
	n := int32(x)
	if *head == 0 {
		*head = n + 1
		l.next[x], l.prev[x] = n, n
		return
	}
	f := *head - 1
	b := l.prev[f]
	l.next[b], l.prev[x] = n, b
	l.next[x], l.prev[f] = f, n
}

// unlink takes node x out of the list *head.
func (l *chain) unlink(head *int32, x int) {
	n := l.next[x]
	if n == int32(x) {
		*head = 0
		return
	}
	p := l.prev[x]
	l.next[p], l.prev[n] = n, p
	if *head == int32(x)+1 {
		*head = n + 1
	}
}

// splice moves the nodes of list *from, in order, to the back of list
// *to, leaving *from empty.
func (l *chain) splice(to, from *int32) {
	if *from == 0 {
		return
	}
	if *to == 0 {
		*to, *from = *from, 0
		return
	}
	fa, fb := *to-1, *from-1
	la, lb := l.prev[fa], l.prev[fb]
	l.next[la], l.prev[fb] = fb, la
	l.next[lb], l.prev[fa] = fa, lb
	*from = 0
}
