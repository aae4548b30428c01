package relation

import "github.com/constcomp/constcomp/internal/value"

// KeyTable maps keys to values of type V, where a key is the projection
// of a tuple onto a column plan. It is the one hash table behind the
// incremental state's counters and row maps (core.incState) and behind
// TupleIndex.
//
// Keys are copied into one flat arena: entry e's key is
// keys[e*width:(e+1)*width], its hash (hashCols, the relation's own
// tuple hash) is hashes[e] and its value vals[e]. The open-addressing
// slot array (linear probing, load ≤ 3/4) holds entry numbers plus one,
// 0 marking an empty slot, so the table holds no pointers beyond those
// in V. A probe is given as (t, cols) — the key is t's values at cols,
// in plan order — so no key is built to look one up, and a tuple of any
// layout can probe a table as long as its cols name the key's columns
// in the table's order.
//
// Entries are dense: Remove backward-shifts the probe chain and then
// moves the last entry into the freed number, so entry numbers
// 0..Len()-1 are exactly the live entries (that is how a table is
// iterated), and a Remove renumbers at most one other entry.
type KeyTable[V any] struct {
	width  int
	keys   []value.Value
	hashes []uint64
	vals   []V
	slots  []int32
}

// NewKeyTable returns an empty table for keys of width values, with
// room for hint entries before it grows.
func NewKeyTable[V any](width, hint int) *KeyTable[V] {
	kt := &KeyTable[V]{width: width}
	if hint > 0 {
		kt.keys = make([]value.Value, 0, hint*width)
		kt.hashes = make([]uint64, 0, hint)
		kt.vals = make([]V, 0, hint)
		kt.slots = make([]int32, tableSize(hint))
	}
	return kt
}

// Len reports the number of entries.
func (kt *KeyTable[V]) Len() int { return len(kt.hashes) }

// Find returns the entry whose key is t's values at cols, or -1.
func (kt *KeyTable[V]) Find(t Tuple, cols []int) int {
	if len(kt.slots) == 0 {
		return -1
	}
	return kt.find(hashCols(t, cols), t, cols)
}

func (kt *KeyTable[V]) find(h uint64, t Tuple, cols []int) int {
	m := len(kt.slots) - 1
	for i := int(h & uint64(m)); ; i = (i + 1) & m {
		s := kt.slots[i]
		if s == 0 {
			return -1
		}
		if e := int(s - 1); kt.hashes[e] == h && kt.keyIs(e, t, cols) {
			return e
		}
	}
}

// keyIs reports whether entry e's key equals t's values at cols.
func (kt *KeyTable[V]) keyIs(e int, t Tuple, cols []int) bool {
	k := kt.keys[e*kt.width : (e+1)*kt.width]
	for i, c := range cols {
		if k[i] != t[c] {
			return false
		}
	}
	return true
}

// Insert returns the entry whose key is t's values at cols, adding one
// with the zero value when there is none; added reports which. cols
// must have the table's width.
func (kt *KeyTable[V]) Insert(t Tuple, cols []int) (e int, added bool) {
	if len(cols) != kt.width {
		panic("relation: key table probed with a key of the wrong width")
	}
	h := hashCols(t, cols)
	if len(kt.slots) > 0 {
		if e := kt.find(h, t, cols); e >= 0 {
			return e, false
		}
	}
	e = len(kt.hashes)
	if (e+1)*4 > len(kt.slots)*3 {
		kt.slots = make([]int32, max(2*len(kt.slots), minTableSize))
		for old, oh := range kt.hashes {
			kt.place(oh, old)
		}
	}
	for _, c := range cols {
		kt.keys = append(kt.keys, t[c])
	}
	kt.hashes = append(kt.hashes, h)
	var zero V
	kt.vals = append(kt.vals, zero)
	kt.place(h, e)
	return e, true
}

// place puts entry e, of hash h, into the first free slot of its probe
// chain.
func (kt *KeyTable[V]) place(h uint64, e int) {
	m := len(kt.slots) - 1
	i := int(h & uint64(m))
	for kt.slots[i] != 0 {
		i = (i + 1) & m
	}
	kt.slots[i] = int32(e + 1)
}

// Val returns a pointer to entry e's value. It is valid until the next
// Insert or Remove.
func (kt *KeyTable[V]) Val(e int) *V { return &kt.vals[e] }

// Key returns entry e's key, in the table's column order. The slice is
// the table's own: read it, do not keep it across an Insert or Remove.
func (kt *KeyTable[V]) Key(e int) []value.Value {
	return kt.keys[e*kt.width : (e+1)*kt.width : (e+1)*kt.width]
}

// Remove deletes entry e. The last entry, if it is not e, takes number
// e.
func (kt *KeyTable[V]) Remove(e int) {
	kt.unslot(kt.slotOf(e))
	last := len(kt.hashes) - 1
	if e != last {
		kt.slots[kt.slotOf(last)] = int32(e + 1)
		w := kt.width
		copy(kt.keys[e*w:(e+1)*w], kt.keys[last*w:])
		kt.hashes[e] = kt.hashes[last]
		kt.vals[e] = kt.vals[last]
	}
	var zero V
	kt.vals[last] = zero
	kt.keys = kt.keys[:last*kt.width]
	kt.hashes = kt.hashes[:last]
	kt.vals = kt.vals[:last]
}

// slotOf returns the slot holding entry e.
func (kt *KeyTable[V]) slotOf(e int) int {
	m := len(kt.slots) - 1
	want := int32(e + 1)
	for i := int(kt.hashes[e] & uint64(m)); ; i = (i + 1) & m {
		switch kt.slots[i] {
		case want:
			return i
		case 0:
			panic("relation: key table entry missing from its probe chain")
		}
	}
}

// unslot empties slot i and backward-shifts the rest of its probe chain
// (standard linear-probing deletion), so later probes stay correct.
func (kt *KeyTable[V]) unslot(i int) {
	m := len(kt.slots) - 1
	for k := (i + 1) & m; kt.slots[k] != 0; k = (k + 1) & m {
		home := int(kt.hashes[kt.slots[k]-1] & uint64(m))
		// k's entry may move back to i only if its home does not lie
		// cyclically in (i, k].
		if (k-home)&m >= (k-i)&m {
			kt.slots[i] = kt.slots[k]
			i = k
		}
	}
	kt.slots[i] = 0
}
