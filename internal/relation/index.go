package relation

import (
	"github.com/constcomp/constcomp/internal/value"
)

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
type TupleIndex struct {
	cols    []int
	buckets map[uint64][]Tuple
	n       int
}

// NewTupleIndex builds an empty index keyed by the given column
// positions of the tuples to come.
func NewTupleIndex(cols []int) *TupleIndex {
	return &TupleIndex{cols: append([]int(nil), cols...), buckets: make(map[uint64][]Tuple)}
}

// IndexRelation builds a TupleIndex over all current tuples of r, keyed
// by the given column positions of r's layout.
func IndexRelation(r *Relation, cols []int) *TupleIndex {
	ix := NewTupleIndex(cols)
	r.Each(func(_ int, t Tuple) bool {
		ix.Add(t)
		return true
	})
	return ix
}

// keyHash hashes the key columns of t (FNV-1a over value words, like the
// relation's primary index).
func (ix *TupleIndex) keyHash(t Tuple) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range ix.cols {
		h = (h ^ uint64(t[c])) * fnvPrime64
	}
	return h
}

// valsHash hashes a key given directly as values in column-plan order.
func (ix *TupleIndex) valsHash(vals []value.Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = (h ^ uint64(v)) * fnvPrime64
	}
	return h
}

// keyEqual reports whether t's key columns equal vals.
func (ix *TupleIndex) keyEqual(t Tuple, vals []value.Value) bool {
	for i, c := range ix.cols {
		if t[c] != vals[i] {
			return false
		}
	}
	return true
}

// Add indexes one tuple (shared, not copied; tuples are immutable once
// inserted into a relation).
func (ix *TupleIndex) Add(t Tuple) {
	h := ix.keyHash(t)
	ix.buckets[h] = append(ix.buckets[h], t)
	ix.n++
}

// Remove drops the first indexed tuple equal to t; it reports whether
// one was found.
func (ix *TupleIndex) Remove(t Tuple) bool {
	h := ix.keyHash(t)
	bucket := ix.buckets[h]
	for i, u := range bucket {
		if u.Equal(t) {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(ix.buckets, h)
			} else {
				ix.buckets[h] = bucket
			}
			ix.n--
			return true
		}
	}
	return false
}

// Lookup returns the indexed tuples whose key columns equal vals (given
// in the order the index was built with). The returned slice is shared;
// callers must not modify it and must not hold it across Add/Remove.
func (ix *TupleIndex) Lookup(vals []value.Value) []Tuple {
	h := ix.valsHash(vals)
	bucket := ix.buckets[h]
	// Fast path: the whole bucket matches (no hash collision).
	all := true
	for _, t := range bucket {
		if !ix.keyEqual(t, vals) {
			all = false
			break
		}
	}
	if all {
		return bucket
	}
	out := make([]Tuple, 0, len(bucket))
	for _, t := range bucket {
		if ix.keyEqual(t, vals) {
			out = append(out, t)
		}
	}
	return out
}

// Len reports the number of indexed tuples.
func (ix *TupleIndex) Len() int { return ix.n }
