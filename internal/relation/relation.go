// Package relation implements an in-memory relational engine with set
// semantics: tuples over attribute sets, projection, selection, natural
// join (hash and sort-merge), Cartesian product, lexicographic sorting and
// dependency satisfaction checks.
//
// This is the substrate the Cosmadakis–Papadimitriou algorithms run on: a
// view instance is a Relation, the translation of an insertion is the join
// R ∪ t*π_Y(R), and the chase of §3 repeatedly sorts/buckets relations by
// attribute subsets. Entries are value.Value, so relations can freely mix
// constants and the labeled nulls the chase introduces.
package relation

import (
	"fmt"
	"strings"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/value"
)

// Tuple is a row; its entries are in ascending attribute-ID order of the
// owning relation's attribute set.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have identical entries.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Less orders tuples lexicographically.
func (t Tuple) Less(o Tuple) bool {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if t[i] != o[i] {
			return t[i] < o[i]
		}
	}
	return len(t) < len(o)
}

// Relation is a set of tuples over a fixed attribute set. Duplicate
// inserts are ignored (set semantics). The zero Relation is invalid; use
// New.
//
// Tuples are immutable once inserted: neither the relation nor any
// caller may modify a tuple reachable through Tuples or Tuple. Every
// kernel relies on this invariant to share tuple slices instead of
// copying them (Clone, Union, Diff, Select, the joins); mutate a Clone()
// of a tuple, never the tuple itself.
type Relation struct {
	attrs  attr.Set
	cols   []attr.ID       // ascending; cols[i] is the attribute of column i
	pos    map[attr.ID]int // inverse of cols; nil for narrow relations (linear scan)
	tuples chunks[Tuple]   // copy-on-write, see chunk.go
	index  table           // open-addressing hash index over tuples
}

// posMapWidth is the column count above which the inverse map pays for
// itself. Below it a linear scan of cols beats building (and collecting)
// a map per relation — projections churn through thousands of narrow
// relations in the update hot path.
const posMapWidth = 8

// New returns an empty relation over the given attribute set.
func New(attrs attr.Set) *Relation {
	cols := attrs.IDs()
	var pos map[attr.ID]int
	if len(cols) > posMapWidth {
		pos = make(map[attr.ID]int, len(cols))
		for i, c := range cols {
			pos[c] = i
		}
	}
	return &Relation{attrs: attrs, cols: cols, pos: pos}
}

// colPos returns the column position of id, or -1 if absent.
func (r *Relation) colPos(id attr.ID) int {
	if r.pos != nil {
		if i, ok := r.pos[id]; ok {
			return i
		}
		return -1
	}
	for i, c := range r.cols {
		if c == id {
			return i
		}
	}
	return -1
}

// Attrs returns the relation's attribute set.
func (r *Relation) Attrs() attr.Set { return r.attrs }

// Universe returns the attribute universe of the relation.
func (r *Relation) Universe() *attr.Universe { return r.attrs.Universe() }

// Width reports the number of columns.
func (r *Relation) Width() int { return len(r.cols) }

// Len reports the number of tuples.
func (r *Relation) Len() int { return r.tuples.len() }

// Cols returns the column attribute IDs in ascending order. The slice is
// shared; callers must not modify it.
func (r *Relation) Cols() []attr.ID { return r.cols }

// Col returns the column position of attribute id, or -1 if the relation
// does not contain it.
func (r *Relation) Col(id attr.ID) int { return r.colPos(id) }

// Tuples returns the tuples in position order: the relation's own
// storage while it is one slab, a fresh slice once copy-on-write has
// cut it into chunks. Callers must not modify it or the
// tuples it contains, nor hold it across a write. Each iterates without
// ever materializing the slice.
func (r *Relation) Tuples() []Tuple {
	if t := r.tuples.flat; t != nil || r.Len() == 0 {
		return t
	}
	return r.tuples.appendTo(make([]Tuple, 0, r.Len()))
}

// Each calls f with the position and tuple of every tuple in position
// order, stopping early if f returns false. The relation must not
// change during the walk.
func (r *Relation) Each(f func(i int, t Tuple) bool) {
	i := 0
	for c, nc := 0, r.tuples.segs(); c < nc; c++ {
		for _, t := range r.tuples.seg(c) {
			if !f(i, t) {
				return
			}
			i++
		}
	}
}

// Tuple returns the i-th tuple.
func (r *Relation) Tuple(i int) Tuple { return r.tuples.at(i) }

// Insert adds a tuple (a copy is not taken; the caller relinquishes the
// slice and must never mutate it afterwards). It reports whether the
// tuple was new. It panics if the arity is wrong.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != len(r.cols) {
		panic(fmt.Sprintf("relation: inserting %d-tuple into %d-ary relation", len(t), len(r.cols)))
	}
	h := hashTuple(t)
	if r.index.lookup(h, t, &r.tuples) >= 0 {
		return false
	}
	r.index.add(h, r.Len())
	r.tuples.push(t)
	return true
}

// InsertVals builds and inserts a tuple from values given in column order.
func (r *Relation) InsertVals(vals ...value.Value) bool {
	t := make(Tuple, len(vals))
	copy(t, vals)
	return r.Insert(t)
}

// InsertNamed inserts a tuple given as attribute-name → constant-name
// mappings interned in syms. Every column must be assigned.
func (r *Relation) InsertNamed(syms *value.Symbols, vals map[string]string) error {
	t := make(Tuple, len(r.cols))
	seen := 0
	for name, cv := range vals {
		id, ok := r.attrs.Universe().Lookup(name)
		if !ok {
			return fmt.Errorf("relation: unknown attribute %q", name)
		}
		c := r.Col(id)
		if c < 0 {
			return fmt.Errorf("relation: attribute %q not in relation", name)
		}
		t[c] = syms.Const(cv)
		seen++
	}
	if seen != len(r.cols) {
		return fmt.Errorf("relation: tuple assigns %d of %d columns", seen, len(r.cols))
	}
	r.Insert(t)
	return nil
}

// Contains reports whether the relation holds the tuple.
func (r *Relation) Contains(t Tuple) bool {
	return r.index.lookup(hashTuple(t), t, &r.tuples) >= 0
}

// Delete removes the tuple if present, reporting whether it was found.
func (r *Relation) Delete(t Tuple) bool {
	h := hashTuple(t)
	i := r.index.lookup(h, t, &r.tuples)
	if i < 0 {
		return false
	}
	r.index.remove(h, i)
	last := r.Len() - 1
	if i != last {
		moved := r.tuples.at(last)
		*r.tuples.ref(i) = moved
		r.index.fix(hashTuple(moved), last, i)
	}
	r.tuples.pop()
	return true
}

// Clone returns an independent copy of the relation. Tuples and the
// column layout are shared with the receiver (both are immutable). A
// relation of more than 2048 tuples shares its storage too: the clone
// costs at most O(n/32), copying chunk directories, and each side then
// copies a 32-entry chunk only on its first write to it (chunk.go). A
// smaller one is copied. Clone may run concurrently with other Clones
// and reads of r, never with a write to r.
func (r *Relation) Clone() *Relation {
	out := &Relation{attrs: r.attrs, cols: r.cols, pos: r.pos}
	share := r.Len() > flatMax
	r.tuples.cloneInto(&out.tuples, share)
	r.index.slots.cloneInto(&out.index.slots, share)
	return out
}

// Equal reports set equality of two relations over the same attribute set.
func (r *Relation) Equal(s *Relation) bool {
	if !r.attrs.Equal(s.attrs) || r.Len() != s.Len() {
		return false
	}
	eq := true
	r.Each(func(_ int, t Tuple) bool {
		eq = s.Contains(t)
		return eq
	})
	return eq
}

// projector precomputes the column mapping for projecting r onto attrs.
func (r *Relation) projector(attrs attr.Set) []int {
	if !attrs.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: projecting %v out of %v", attrs, r.attrs))
	}
	ids := attrs.IDs()
	m := make([]int, len(ids))
	for i, id := range ids {
		m[i] = r.colPos(id)
	}
	return m
}

// ProjectTuple projects a single tuple of r onto attrs.
func (r *Relation) ProjectTuple(t Tuple, attrs attr.Set) Tuple {
	m := r.projector(attrs)
	out := make(Tuple, len(m))
	for i, c := range m {
		out[i] = t[c]
	}
	return out
}

// slab hands out tuple storage carved from block allocations, so kernels
// that materialize many small tuples (Project, the joins) pay one
// allocation per block instead of one per tuple.
type slab struct {
	buf []value.Value
	off int
	// hint caps the size of the NEXT block carved: a kernel that knows
	// its output is at most n tuples (Project can't emit more than its
	// input has) sets it so small relations don't pay for a full
	// 256-tuple block. Zero means full-size; the cap applies once, so
	// outputs that outgrow the hint fall back to full blocks.
	hint int
}

// slabBlock is how many tuples a slab block holds.
const slabBlock = 256

// tuple carves a fresh w-entry tuple.
func (s *slab) tuple(w int) Tuple {
	if s.off+w > len(s.buf) {
		n := slabBlock
		if s.hint > 0 && s.hint < n {
			n = s.hint
		}
		s.hint = 0
		s.buf = make([]value.Value, (n+1)*w)
		s.off = 0
	}
	t := Tuple(s.buf[s.off : s.off+w : s.off+w])
	s.off += w
	return t
}

// undo returns the storage of the tuple just carved (valid only
// immediately after the matching tuple call, before the tuple escapes).
func (s *slab) undo(w int) { s.off -= w }

// joinHint bounds a join's first slab block by the worst-case output
// cardinality |build|×|probe|. Zero (full-size blocks) when the product
// reaches the normal block size anyway, so only small joins — the
// singleton joins of the per-update translation — get trimmed.
func joinHint(b, p int) int {
	if b == 0 || p == 0 {
		return 1
	}
	if b > slabBlock/p {
		return 0
	}
	return b * p
}

// insertProjection inserts π_m(src) into r, carving storage from sl only
// when the projected tuple is new; duplicates allocate nothing.
func (r *Relation) insertProjection(src Tuple, m []int, sl *slab) bool {
	h := uint64(fnvOffset64)
	for _, c := range m {
		h = hashWord(h, src[c])
	}
	h = hashFinish(h)
	if size := r.index.slots.len(); size > 0 {
		msk := size - 1
		for i := int(h & uint64(msk)); ; i = (i + 1) & msk {
			s := r.index.slots.at(i)
			if s.idx < 0 {
				break
			}
			if s.hash != h {
				continue
			}
			cand := r.tuples.at(s.idx)
			dup := true
			for j, c := range m {
				if cand[j] != src[c] {
					dup = false
					break
				}
			}
			if dup {
				return false
			}
		}
	}
	t := sl.tuple(len(m))
	for j, c := range m {
		t[j] = src[c]
	}
	r.index.add(h, r.Len())
	r.tuples.push(t)
	return true
}

// Project returns π_attrs(r) with duplicates removed.
func (r *Relation) Project(attrs attr.Set) *Relation {
	m := r.projector(attrs)
	var out *Relation
	if n := r.Len(); n >= parallelThreshold && workers() > 1 {
		out = projectParallel(r, attrs, m)
	} else {
		out = New(attrs)
		sl := slab{hint: n}
		for c, nc := 0, r.tuples.segs(); c < nc; c++ {
			for _, t := range r.tuples.seg(c) {
				out.insertProjection(t, m, &sl)
			}
		}
	}
	if km := kmetrics.Load(); km != nil {
		km.projectCalls.Inc()
		km.projectInTuples.Add(int64(r.Len()))
		km.projectOutTuples.Add(int64(out.Len()))
	}
	return out
}

// Select returns the tuples satisfying pred, as a new relation sharing
// the selected tuples (tuples are immutable after insert).
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.attrs)
	r.Each(func(_ int, t Tuple) bool {
		if pred(t) {
			out.Insert(t)
		}
		return true
	})
	return out
}

// SelectEq returns the tuples whose projection onto attrs equals key
// (key's entries in ascending attribute order of attrs). The key must
// have exactly one entry per attribute.
func (r *Relation) SelectEq(attrs attr.Set, key Tuple) *Relation {
	m := r.projector(attrs)
	if len(key) != len(m) {
		panic(fmt.Sprintf("relation: SelectEq key has %d entries for %d attributes", len(key), len(m)))
	}
	var out *Relation
	if n := r.Len(); n >= parallelThreshold && workers() > 1 {
		out = selectEqParallel(r, m, key)
	} else {
		out = New(r.attrs)
		for c, nc := 0, r.tuples.segs(); c < nc; c++ {
			for _, t := range r.tuples.seg(c) {
				if equalKey(t, m, key) {
					out.Insert(t)
				}
			}
		}
	}
	if km := kmetrics.Load(); km != nil {
		km.selectEqCalls.Inc()
		km.selectEqScanned.Add(int64(r.Len()))
		km.selectEqMatched.Add(int64(out.Len()))
	}
	return out
}

// equalKey reports whether t's cols m equal key pointwise.
func equalKey(t Tuple, m []int, key Tuple) bool {
	for i, c := range m {
		if t[c] != key[i] {
			return false
		}
	}
	return true
}

// Union returns r ∪ s over the same attribute set, sharing tuples with
// both operands. The result starts as a private copy of r sized for
// |r|+|s|, not a Clone: the bulk inserts would otherwise copy r's
// chunks one by one and grow the table midway.
func (r *Relation) Union(s *Relation) *Relation {
	if !r.attrs.Equal(s.attrs) {
		panic("relation: union over different attribute sets")
	}
	n := r.Len() + s.Len()
	out := &Relation{attrs: r.attrs, cols: r.cols, pos: r.pos}
	out.tuples.adopt(r.tuples.appendTo(make([]Tuple, 0, n)))
	out.index.resize(&r.index, tableSize(n))
	s.Each(func(_ int, t Tuple) bool {
		out.Insert(t)
		return true
	})
	return out
}

// Diff returns r − s over the same attribute set, sharing tuples with r.
func (r *Relation) Diff(s *Relation) *Relation {
	if !r.attrs.Equal(s.attrs) {
		panic("relation: difference over different attribute sets")
	}
	out := New(r.attrs)
	r.Each(func(_ int, t Tuple) bool {
		if !s.Contains(t) {
			out.Insert(t)
		}
		return true
	})
	return out
}

// JoinAlgorithm selects the natural-join implementation.
type JoinAlgorithm int

// Join algorithms.
const (
	// HashJoin buckets the smaller operand by the shared attributes.
	HashJoin JoinAlgorithm = iota
	// SortMergeJoin sorts both operands by the shared attributes and
	// merges.
	SortMergeJoin
)

// Join computes the natural join r ⋈ s with the default (hash) algorithm.
func (r *Relation) Join(s *Relation) *Relation {
	return r.JoinWith(s, HashJoin)
}

// JoinWith computes the natural join r ⋈ s with the chosen algorithm.
// If the operands share no attributes the result is the Cartesian product.
func (r *Relation) JoinWith(s *Relation, alg JoinAlgorithm) *Relation {
	if r.Universe() != s.Universe() {
		panic("relation: join across universes")
	}
	switch alg {
	case SortMergeJoin:
		return joinSortMerge(r, s)
	default:
		return joinHash(r, s)
	}
}

// combine merges a tuple of r and a tuple of s into the union schema.
// The shared attributes are taken from r's tuple (they agree by
// construction).
func joinPlan(r, s *Relation) (out *Relation, fromR, fromS []int) {
	union := r.attrs.Union(s.attrs)
	out = New(union)
	fromR = make([]int, len(out.cols))
	fromS = make([]int, len(out.cols))
	for i, id := range out.cols {
		fromR[i], fromS[i] = -1, -1
		if c := r.Col(id); c >= 0 {
			fromR[i] = c
		} else {
			fromS[i] = s.Col(id)
		}
	}
	return out, fromR, fromS
}

// joinIndex is a chained hash index of one join operand's shared
// columns: heads maps a key hash to the first tuple of its chain, next
// threads tuples with equal hash. Collisions are verified by comparing
// the actual shared columns.
type joinIndex struct {
	heads *headTable
	next  []int
}

// buildJoinIndex indexes every tuple of build by hashCols(·, bm) into ji.
func buildJoinIndex(ji *joinIndex, build *Relation, bm []int) {
	build.Each(func(i int, t Tuple) bool {
		ji.next[i] = ji.heads.put(hashCols(t, bm), i)
		return true
	})
}

// probeJoin emits the join of probe tuples [lo, hi) against the build
// index into out (which must be over the joinPlan schema). emit order
// follows probe order, so chunked parallel probes merged in chunk order
// reproduce the serial output exactly. It returns the number of hash
// chain entries visited (the probe cost the obs layer reports).
func probeJoin(out *Relation, ji *joinIndex, build, probe *Relation, bm, pm, fromR, fromS []int, buildIsR bool, lo, hi int, sl *slab) int64 {
	w := len(out.cols)
	var visits int64
	for pi := lo; pi < hi; pi++ {
		t := probe.tuples.at(pi)
		h := hashCols(t, pm)
		for j := ji.heads.get(h); j >= 0; j = ji.next[j] {
			visits++
			bt := build.tuples.at(j)
			if !equalOn(bt, bm, t, pm) {
				continue
			}
			rt, st := bt, t
			if !buildIsR {
				rt, st = t, bt
			}
			nt := sl.tuple(w)
			for i := range nt {
				if fromR[i] >= 0 {
					nt[i] = rt[fromR[i]]
				} else {
					nt[i] = st[fromS[i]]
				}
			}
			if !out.Insert(nt) {
				sl.undo(w)
			}
		}
	}
	return visits
}

// recordJoin publishes one join call's counts to the obs layer.
func recordJoin(m *kernelMetrics, build, probe, out *Relation, visits int64) {
	m.joinCalls.Inc()
	m.joinBuildTuples.Add(int64(build.Len()))
	m.joinProbeTuples.Add(int64(probe.Len()))
	m.joinChainVisits.Add(visits)
	m.joinOutTuples.Add(int64(out.Len()))
}

func joinHash(r, s *Relation) *Relation {
	shared := r.attrs.Intersect(s.attrs)
	// Build on the smaller side.
	build, probe := r, s
	if s.Len() < r.Len() {
		build, probe = s, r
	}
	if probe.Len() >= parallelThreshold && workers() > 1 {
		return joinHashParallel(r, s, build, probe, shared)
	}
	bm := build.projector(shared)
	pm := probe.projector(shared)
	ji := &joinIndex{heads: newHeadTable(build.Len()), next: make([]int, build.Len())}
	buildJoinIndex(ji, build, bm)
	out, fromR, fromS := joinPlan(r, s)
	sl := slab{hint: joinHint(build.Len(), probe.Len())}
	visits := probeJoin(out, ji, build, probe, bm, pm, fromR, fromS, build == r, 0, probe.Len(), &sl)
	if m := kmetrics.Load(); m != nil {
		recordJoin(m, build, probe, out, visits)
	}
	return out
}

func joinSortMerge(r, s *Relation) *Relation {
	shared := r.attrs.Intersect(s.attrs)
	rm := r.projector(shared)
	sm := s.projector(shared)
	rt := r.tuples.appendTo(make([]Tuple, 0, r.Len()))
	st := s.tuples.appendTo(make([]Tuple, 0, s.Len()))
	SortTuplesBy(rt, rm)
	SortTuplesBy(st, sm)
	out, fromR, fromS := joinPlan(r, s)
	i, j := 0, 0
	for i < len(rt) && j < len(st) {
		c := compareOn(rt[i], rm, st[j], sm)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the equal runs on both sides.
			i2 := i
			for i2 < len(rt) && compareOn(rt[i2], rm, st[j], sm) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(st) && compareOn(rt[i], rm, st[j2], sm) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					nt := make(Tuple, len(out.cols))
					for k := range nt {
						if fromR[k] >= 0 {
							nt[k] = rt[a][fromR[k]]
						} else {
							nt[k] = st[b][fromS[k]]
						}
					}
					out.Insert(nt)
				}
			}
			i, j = i2, j2
		}
	}
	return out
}

func compareOn(a Tuple, am []int, b Tuple, bm []int) int {
	for i := range am {
		av, bv := a[am[i]], b[bm[i]]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Product returns the Cartesian product of relations over disjoint
// attribute sets.
func (r *Relation) Product(s *Relation) *Relation {
	if r.attrs.Intersects(s.attrs) {
		panic("relation: product of overlapping relations")
	}
	return joinHash(r, s)
}

// Sorted returns the tuples sorted lexicographically by the given
// attribute order (remaining columns break ties in ascending ID order).
// The relation itself is unchanged.
func (r *Relation) Sorted(by attr.Set) []Tuple {
	m := r.projector(by)
	// Append the remaining columns for a total order.
	rest := r.attrs.Diff(by)
	m = append(m, r.projector(rest)...)
	out := r.tuples.appendTo(make([]Tuple, 0, r.Len()))
	SortTuplesBy(out, m)
	return out
}

// Singleton returns a one-tuple relation over attrs.
func Singleton(attrs attr.Set, t Tuple) *Relation {
	r := New(attrs)
	r.Insert(t)
	return r
}

// Format renders the relation as an aligned table using syms for constant
// names, with columns in ascending attribute order and rows sorted
// lexicographically (deterministic output).
func (r *Relation) Format(syms *value.Symbols) string {
	var b strings.Builder
	u := r.Universe()
	widths := make([]int, len(r.cols))
	header := make([]string, len(r.cols))
	for i, id := range r.cols {
		header[i] = u.Name(id)
		widths[i] = len(header[i])
	}
	rows := r.Sorted(r.attrs)
	cells := make([][]string, len(rows))
	for ri, t := range rows {
		cells[ri] = make([]string, len(t))
		for ci, v := range t {
			s := syms.Name(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// String renders a compact representation without a symbol table.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v (%d tuples)", r.attrs, r.Len())
	return b.String()
}
