package relation

// TupleIndex is a secondary hash index over a projection of a
// relation's columns, built for delta maintenance: the incremental
// decide/apply path keeps one per lookup pattern (shared columns, an
// FD's Z∩X columns, the X columns of the base) and updates it per
// (Δ⁺, Δ⁻) tuple instead of re-projecting the instance.
//
// The index stores tuple references, not row positions: Relation.Delete
// swap-removes, so positions are unstable, while tuples are immutable
// once inserted and stay valid across Clone. The indexed relation's
// inserts and deletes must be mirrored with Add and Remove.
//
// A KeyTable maps each key to the head of a chain of the tuples under
// it; the chains live in one flat node array whose freed nodes form a
// free list, so an Add allocates nothing once the arrays have grown.
type TupleIndex struct {
	cols  []int
	heads *KeyTable[int32] // key → first node of its chain
	nodes []ixNode
	free  int32 // first free node, -1 when none
	n     int
	buf   []Tuple // LookupOn's result, reused
}

// ixNode is one indexed tuple; next links the chain of its key, or the
// free list, and is -1 at the end.
type ixNode struct {
	t    Tuple
	next int32
}

// NewTupleIndex builds an empty index keyed by the given column
// positions of the tuples to come.
func NewTupleIndex(cols []int) *TupleIndex { return newTupleIndex(cols, 0) }

// newTupleIndex is NewTupleIndex with room for hint tuples.
func newTupleIndex(cols []int, hint int) *TupleIndex {
	return &TupleIndex{
		cols:  append([]int(nil), cols...),
		heads: NewKeyTable[int32](len(cols), hint),
		nodes: make([]ixNode, 0, hint),
		free:  -1,
	}
}

// IndexRelation builds a TupleIndex over all current tuples of r, keyed
// by the given column positions of r's layout.
func IndexRelation(r *Relation, cols []int) *TupleIndex {
	ix := newTupleIndex(cols, r.Len())
	r.Each(func(_ int, t Tuple) bool {
		ix.Add(t)
		return true
	})
	return ix
}

// Add indexes one tuple (shared, not copied; tuples are immutable once
// inserted into a relation).
func (ix *TupleIndex) Add(t Tuple) {
	e, added := ix.heads.Insert(t, ix.cols)
	head := ix.heads.Val(e)
	if added {
		*head = -1
	}
	nd := ix.free
	if nd >= 0 {
		ix.free = ix.nodes[nd].next
		ix.nodes[nd] = ixNode{t: t, next: *head}
	} else {
		nd = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, ixNode{t: t, next: *head})
	}
	*head = nd
	ix.n++
}

// Remove drops an indexed tuple equal to t; it reports whether one was
// found.
func (ix *TupleIndex) Remove(t Tuple) bool {
	e := ix.heads.Find(t, ix.cols)
	if e < 0 {
		return false
	}
	head := ix.heads.Val(e)
	for prev, nd := int32(-1), *head; nd >= 0; prev, nd = nd, ix.nodes[nd].next {
		if !ix.nodes[nd].t.Equal(t) {
			continue
		}
		if next := ix.nodes[nd].next; prev < 0 {
			*head = next
		} else {
			ix.nodes[prev].next = next
		}
		ix.nodes[nd] = ixNode{next: ix.free}
		ix.free = nd
		ix.n--
		if *head < 0 {
			ix.heads.Remove(e)
		}
		return true
	}
	return false
}

// LookupOn returns the indexed tuples whose key equals t's values at
// cols, which name the key's columns in the index's order but in t's
// own layout. The result is the index's reusable buffer: it is valid
// only until the next LookupOn, Add or Remove on the same index, and
// callers must not modify it. Finish with one lookup — or copy what it
// returned — before the next on the same index.
func (ix *TupleIndex) LookupOn(t Tuple, cols []int) []Tuple {
	ix.buf = ix.buf[:0]
	if e := ix.heads.Find(t, cols); e >= 0 {
		for nd := *ix.heads.Val(e); nd >= 0; nd = ix.nodes[nd].next {
			ix.buf = append(ix.buf, ix.nodes[nd].t)
		}
	}
	return ix.buf
}

// AnyOn returns an indexed tuple whose key equals t's values at cols
// (as for LookupOn) and that is not equal to except (nil excepts
// nothing), and whether there is one. It stops at the first such
// tuple, so it costs O(1) under a key with many tuples where LookupOn
// costs the key's whole chain.
func (ix *TupleIndex) AnyOn(t Tuple, cols []int, except Tuple) (Tuple, bool) {
	if e := ix.heads.Find(t, cols); e >= 0 {
		for nd := *ix.heads.Val(e); nd >= 0; nd = ix.nodes[nd].next {
			if u := ix.nodes[nd].t; except == nil || !u.Equal(except) {
				return u, true
			}
		}
	}
	return nil, false
}

// Len reports the number of indexed tuples.
func (ix *TupleIndex) Len() int { return ix.n }
