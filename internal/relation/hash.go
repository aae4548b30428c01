package relation

import "github.com/constcomp/constcomp/internal/value"

// Tuple hashing and the open-addressing tuple index.
//
// Tuples are hashed as 64-bit FNV-1a over their value.Value machine
// words, followed by a splitmix64-style finalizer so the low bits (used
// as the table mask) are well mixed even for the small dense integers
// Symbols hands out. Hash collisions are possible and are always
// resolved by verifying against the actual tuple contents, so no
// correctness rests on hash quality — only speed does.
//
// The index stores (hash, position) pairs in a linear-probing table and
// keeps no keys of its own: equality is checked against the relation's
// tuple array. Insert/Contains/Delete therefore allocate nothing per
// tuple (the old implementation rendered every tuple into a fresh
// string key on every operation).
//
// The word hash (HashSeed, HashWord, HashFinish) and the chain-head
// table (HeadTable) are exported: the chase buckets rows by their
// resolved FD left-hand sides with the same kernel.

// HashSeed is the FNV-1a offset basis a word hash starts from.
const HashSeed uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// HashWord folds one value into a running FNV-1a word hash.
func HashWord(h uint64, v value.Value) uint64 {
	return (h ^ uint64(v)) * fnvPrime64
}

// HashFinish applies a splitmix64 finalizer to the accumulated hash.
func HashFinish(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashTuple hashes a whole tuple.
func hashTuple(t Tuple) uint64 {
	h := HashSeed
	for _, v := range t {
		h = HashWord(h, v)
	}
	return HashFinish(h)
}

// hashCols hashes the projection of t onto the given columns.
func hashCols(t Tuple, cols []int) uint64 {
	h := HashSeed
	for _, c := range cols {
		h = HashWord(h, t[c])
	}
	return HashFinish(h)
}

// equalOn reports whether a's cols am equal b's cols bm pointwise.
func equalOn(a Tuple, am []int, b Tuple, bm []int) bool {
	for i := range am {
		if a[am[i]] != b[bm[i]] {
			return false
		}
	}
	return true
}

// tslot is one index slot: the tuple's hash and its position in the
// tuple array, or idx == -1 for an empty slot.
type tslot struct {
	hash uint64
	idx  int
}

// table is the open-addressing index. Its slots live in a chunks array
// of a power-of-two size, so a cloned relation shares them copy-on-write
// with its source. It holds one entry per tuple, so the relation's
// length is its entry count. The zero value is an empty index; slots
// are allocated on first add.
type table struct {
	slots chunks[tslot]
}

// minTableSize is the initial slot count (power of two).
const minTableSize = 8

// tableSize is the slot count that holds n entries at load ≤ 3/4.
func tableSize(n int) int {
	size := minTableSize
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// lookup returns the tuple position of t, or -1 if absent.
func (tb *table) lookup(h uint64, t Tuple, tuples *chunks[Tuple]) int {
	size := tb.slots.len()
	if size == 0 {
		return -1
	}
	m := size - 1
	for i := int(h & uint64(m)); ; i = (i + 1) & m {
		s := tb.slots.at(i)
		if s.idx < 0 {
			return -1
		}
		if s.hash == h && tuples.at(s.idx).Equal(t) {
			return s.idx
		}
	}
}

// add records that the tuple with hash h lives at position idx, the
// relation's length before the insert. The caller must have verified
// absence (lookup < 0).
func (tb *table) add(h uint64, idx int) {
	if size := tb.slots.len(); idx*4 >= size*3 {
		tb.resize(tb, max(2*size, minTableSize))
	}
	m := tb.slots.len() - 1
	i := int(h & uint64(m))
	for tb.slots.at(i).idx >= 0 {
		i = (i + 1) & m
	}
	*tb.slots.ref(i) = tslot{hash: h, idx: idx}
}

// resize replaces tb's slots with a fresh table of size slots holding
// src's entries; src may be tb itself (growth) or another relation's
// index (Union). The stored hashes make this a pure memory shuffle:
// tuples are never re-hashed.
func (tb *table) resize(src *table, size int) {
	slots := make([]tslot, size)
	for i := range slots {
		slots[i].idx = -1
	}
	m := size - 1
	for c, nc := 0, src.slots.segs(); c < nc; c++ {
		for _, s := range src.slots.seg(c) {
			if s.idx < 0 {
				continue
			}
			i := int(s.hash & uint64(m))
			for slots[i].idx >= 0 {
				i = (i + 1) & m
			}
			slots[i] = s
		}
	}
	tb.slots.adopt(slots)
}

// fix rewrites the tuple position of the entry (h, old) to new; used
// when a delete swaps the last tuple into the vacated position.
func (tb *table) fix(h uint64, old, new int) {
	m := tb.slots.len() - 1
	for i := int(h & uint64(m)); ; i = (i + 1) & m {
		s := tb.slots.at(i)
		if s.idx == old && s.hash == h {
			tb.slots.ref(i).idx = new
			return
		}
		if s.idx < 0 {
			panic("relation: index entry to fix not found")
		}
	}
}

// remove deletes the entry (h, idx), backward-shifting the probe chain
// (standard linear-probing deletion) so later lookups stay correct.
func (tb *table) remove(h uint64, idx int) {
	m := tb.slots.len() - 1
	i := int(h & uint64(m))
	for {
		s := tb.slots.at(i)
		if s.idx < 0 {
			panic("relation: index entry to remove not found")
		}
		if s.idx == idx && s.hash == h {
			break
		}
		i = (i + 1) & m
	}
	for {
		k := i
		var next tslot
		for {
			k = (k + 1) & m
			next = tb.slots.at(k)
			if next.idx < 0 {
				tb.slots.ref(i).idx = -1
				return
			}
			home := int(next.hash & uint64(m))
			// k's entry may move back to i only if its home position
			// does not lie cyclically in (i, k].
			if (k-home)&m >= (k-i)&m {
				break
			}
		}
		*tb.slots.ref(i) = next
		i = k
	}
}

// headSlot maps a join/bucket hash to the head of a chain; head == -1
// marks an empty slot.
type headSlot struct {
	key  uint64
	head int
}

// HeadTable is an open-addressing map from hash to chain head; chains
// are threaded through a caller-owned next array. It is used one of two
// ways, never both on one table. The hash join, the FD-satisfaction
// scan and the chase passes size it once for a known number of entries
// and fill it with Put, which never grows it. chase.Maintained keys its
// buckets with Set and Delete, which count the entries and grow the
// table as needed.
type HeadTable struct {
	slots []headSlot
	n     int // entries, counted by Set and Delete only
}

// NewHeadTable returns a table with room for n entries at ≤3/4 load.
func NewHeadTable(n int) *HeadTable {
	ht := &HeadTable{slots: make([]headSlot, tableSize(n))}
	for i := range ht.slots {
		ht.slots[i].head = -1
	}
	return ht
}

// Get returns the chain head for key h, or -1.
func (ht *HeadTable) Get(h uint64) int {
	m := len(ht.slots) - 1
	for i := int(h & uint64(m)); ; i = (i + 1) & m {
		s := ht.slots[i]
		if s.head < 0 {
			return -1
		}
		if s.key == h {
			return s.head
		}
	}
}

// Put sets the chain head for key h, returning the previous head or -1.
func (ht *HeadTable) Put(h uint64, head int) int {
	m := len(ht.slots) - 1
	for i := int(h & uint64(m)); ; i = (i + 1) & m {
		s := &ht.slots[i]
		if s.head < 0 {
			s.key = h
			s.head = head
			return -1
		}
		if s.key == h {
			prev := s.head
			s.head = head
			return prev
		}
	}
}

// Set is Put on a growing table: it counts a new key and doubles the
// table once the entries pass 3/4 of its slots.
func (ht *HeadTable) Set(h uint64, head int) {
	if ht.Put(h, head) >= 0 {
		return
	}
	ht.n++
	if ht.n*4 <= len(ht.slots)*3 {
		return
	}
	old := ht.slots
	ht.slots = make([]headSlot, 2*len(old))
	for i := range ht.slots {
		ht.slots[i].head = -1
	}
	for _, s := range old {
		if s.head >= 0 {
			ht.Put(s.key, s.head)
		}
	}
}

// Delete removes key h, if present, from a table filled with Set. The
// rest of its probe chain shifts back (linear-probing deletion), so
// later probes stay correct and no tombstones pile up.
func (ht *HeadTable) Delete(h uint64) {
	m := len(ht.slots) - 1
	i := int(h & uint64(m))
	for ; ht.slots[i].head >= 0; i = (i + 1) & m {
		if ht.slots[i].key == h {
			break
		}
	}
	if ht.slots[i].head < 0 {
		return
	}
	ht.n--
	for k := (i + 1) & m; ht.slots[k].head >= 0; k = (k + 1) & m {
		home := int(ht.slots[k].key & uint64(m))
		// k's entry may move back to i only if its home does not lie
		// cyclically in (i, k].
		if (k-home)&m >= (k-i)&m {
			ht.slots[i] = ht.slots[k]
			i = k
		}
	}
	ht.slots[i].head = -1
}
