package relation

import (
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/value"
)

// ktKey is a key of the fuzzed KeyTable, in the table's column order.
type ktKey [2]value.Value

// ktState pairs a KeyTable and a TupleIndex with map oracles. Both are
// keyed over three-column tuples: the table by columns (2, 0), the index
// by columns (1, 2). Values come from a small domain, so tables stay at
// a few slots, probe chains collide and wrap around the slot array, and
// removals hit keys in the middle of chains.
type ktState struct {
	kt     *KeyTable[int]
	ktOrc  map[ktKey]int
	ix     *TupleIndex
	ixOrc  map[[3]value.Value]bool
	ixPeak int // most tuples the index held at once
}

var (
	ktCols = []int{2, 0}
	ixCols = []int{1, 2}
)

// ktMaxSteps bounds the ops one input runs, keeping each exec fast.
const ktMaxSteps = 300

func newKTState() *ktState {
	return &ktState{
		kt:    NewKeyTable[int](len(ktCols), 0),
		ktOrc: map[ktKey]int{},
		ix:    NewTupleIndex(ixCols),
		ixOrc: map[[3]value.Value]bool{},
	}
}

// ktTuple builds a tuple whose table key (columns 2, 0) is (a, b).
func ktTuple(a, b byte) Tuple {
	return Tuple{value.Value(b % 6), 99, value.Value(a % 6)}
}

// ixTuple builds a tuple with index key (columns 1, 2) (a, b) and a
// payload in column 0.
func ixTuple(a, b, p byte) Tuple {
	return Tuple{value.Value(p % 4), value.Value(a % 3), value.Value(b % 3)}
}

// step decodes one op from b: Put, Get or Del on the table; Add,
// Remove or LookupOn (with AnyOn) on the index.
func (s *ktState) step(t *testing.T, b [3]byte) {
	t.Helper()
	switch b[0] % 6 {
	case 0: // Put
		tp := ktTuple(b[1], b[2])
		e, added := s.kt.Insert(tp, ktCols)
		k := ktKey{tp[2], tp[0]}
		if _, had := s.ktOrc[k]; added == had {
			t.Fatalf("Put %v: added=%v, oracle had it=%v", k, added, had)
		}
		*s.kt.Val(e) = int(b[0] >> 3)
		s.ktOrc[k] = int(b[0] >> 3)
	case 1: // Get, probing with a tuple of another layout
		k := ktKey{value.Value(b[1] % 6), value.Value(b[2] % 6)}
		e := s.kt.Find(Tuple{k[1], k[0]}, []int{1, 0})
		v, ok := s.ktOrc[k]
		if (e >= 0) != ok || ok && *s.kt.Val(e) != v {
			t.Fatalf("Get %v: entry %d, oracle %v/%v", k, e, v, ok)
		}
	case 2: // Del
		tp := ktTuple(b[1], b[2])
		k := ktKey{tp[2], tp[0]}
		e := s.kt.Find(tp, ktCols)
		if _, ok := s.ktOrc[k]; (e >= 0) != ok {
			t.Fatalf("Del %v: entry %d, oracle has it=%v", k, e, ok)
		}
		if e >= 0 {
			s.kt.Remove(e)
			delete(s.ktOrc, k)
		}
	case 3: // Add
		tp := ixTuple(b[1], b[2], b[0]>>3)
		k := [3]value.Value{tp[0], tp[1], tp[2]}
		if !s.ixOrc[k] {
			s.ix.Add(tp)
			s.ixOrc[k] = true
			s.ixPeak = max(s.ixPeak, len(s.ixOrc))
		}
	case 4: // Remove
		tp := ixTuple(b[1], b[2], b[0]>>3)
		k := [3]value.Value{tp[0], tp[1], tp[2]}
		if got := s.ix.Remove(tp); got != s.ixOrc[k] {
			t.Fatalf("Remove %v = %v, oracle has it=%v", k, got, s.ixOrc[k])
		}
		delete(s.ixOrc, k)
	case 5: // LookupOn, probing with a tuple of another layout
		s.checkLookup(t, value.Value(b[1]%3), value.Value(b[2]%3))
	}
}

// checkLookup probes the index for key (a, b) with a tuple laid out as
// (b, junk, a), through LookupOn and AnyOn, and compares the results
// with the oracle.
func (s *ktState) checkLookup(t *testing.T, a, b value.Value) {
	t.Helper()
	got := s.ix.LookupOn(Tuple{b, 77, a}, []int{2, 0})
	seen := map[[3]value.Value]bool{}
	for _, tp := range got {
		k := [3]value.Value{tp[0], tp[1], tp[2]}
		if tp[1] != a || tp[2] != b || !s.ixOrc[k] || seen[k] {
			t.Fatalf("LookupOn(%v,%v) returned %v (in oracle %v, repeated %v)", a, b, tp, s.ixOrc[k], seen[k])
		}
		seen[k] = true
	}
	want := 0
	for k := range s.ixOrc {
		if k[1] == a && k[2] == b {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("LookupOn(%v,%v) returned %d tuples, oracle %d", a, b, len(got), want)
	}
	probe := Tuple{b, 77, a}
	first, ok := s.ix.AnyOn(probe, []int{2, 0}, nil)
	if ok != (want > 0) || ok && !seen[[3]value.Value{first[0], first[1], first[2]}] {
		t.Fatalf("AnyOn(%v,%v) = %v/%v with %d tuples under the key", a, b, first, ok, want)
	}
	if other, ok := s.ix.AnyOn(probe, []int{2, 0}, first); ok != (want > 1) || ok && other.Equal(first) {
		t.Fatalf("AnyOn(%v,%v) except %v = %v/%v with %d tuples under the key", a, b, first, other, ok, want)
	}
}

// check verifies both structures against their oracles: the table's
// slots, entries, hashes and lookups, the index's length and node
// reuse, and, when all is set, a lookup of every index key.
func (s *ktState) check(t *testing.T, all bool) {
	t.Helper()
	kt := s.kt
	if kt.Len() != len(s.ktOrc) {
		t.Fatalf("table Len %d, oracle %d", kt.Len(), len(s.ktOrc))
	}
	// A corrupt table can leave no empty slot, and lookups would then
	// spin: check its slots before any lookup.
	used := make([]bool, kt.Len())
	for _, sl := range kt.slots {
		if sl == 0 {
			continue
		}
		e := int(sl - 1)
		if e >= kt.Len() || used[e] {
			t.Fatalf("bad slot for entry %d of %d", e, kt.Len())
		}
		used[e] = true
	}
	for e := 0; e < kt.Len(); e++ {
		if !used[e] {
			t.Fatalf("entry %d has no slot", e)
		}
		k := kt.Key(e)
		tp := Tuple{k[1], 0, k[0]}
		if kt.hashes[e] != hashCols(tp, ktCols) {
			t.Fatalf("entry %d: stale hash", e)
		}
		if v, ok := s.ktOrc[ktKey{k[0], k[1]}]; !ok || *kt.Val(e) != v {
			t.Fatalf("entry %d: key %v value %d, oracle %d/%v", e, k, *kt.Val(e), v, ok)
		}
		if got := kt.Find(tp, ktCols); got != e {
			t.Fatalf("entry %d: Find returns %d", e, got)
		}
	}

	if s.ix.Len() != len(s.ixOrc) {
		t.Fatalf("index Len %d, oracle %d", s.ix.Len(), len(s.ixOrc))
	}
	if len(s.ix.nodes) > s.ixPeak {
		t.Fatalf("index holds %d nodes for at most %d tuples: freed nodes not reused", len(s.ix.nodes), s.ixPeak)
	}
	if !all {
		return
	}
	for a := value.Value(0); a < 3; a++ {
		for b := value.Value(0); b < 3; b++ {
			s.checkLookup(t, a, b)
		}
	}
}

// ktOp encodes the op byte step decodes as op code with parameter p.
func ktOp(code, p byte) byte { return 8*p + (code+4*p)%6 }

// FuzzKeyTable drives a KeyTable and a TupleIndex through Put, Get,
// Del, Add, Remove and LookupOn/AnyOn against map oracles, checking every
// slot and entry after each op.
func FuzzKeyTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 9, 60, 300, 900} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	// Fill the table to 36 keys, then delete from the front: every Del
	// but the last swap-removes the last entry into the freed number,
	// and deletes land in the middle of probe chains.
	var fill []byte
	for a := byte(0); a < 6; a++ {
		for b := byte(0); b < 6; b++ {
			fill = append(fill, ktOp(0, a+b), a, b)
		}
	}
	for a := byte(0); a < 6; a++ {
		for b := byte(0); b < 6; b++ {
			fill = append(fill, ktOp(2, 0), a, b, ktOp(1, 0), a+1, b)
		}
	}
	f.Add(fill)
	// Tiny table: five keys in eight slots, deleted and re-put in turn.
	var tiny []byte
	for i := byte(0); i < 5; i++ {
		tiny = append(tiny, ktOp(0, i), i, 5-i)
	}
	for i := byte(0); i < 5; i++ {
		tiny = append(tiny, ktOp(2, 0), i, 5-i, ktOp(0, i), i+1, i)
	}
	f.Add(tiny)
	// Index: fill one key's chain, remove from its middle, and re-add,
	// reusing freed nodes.
	var chain []byte
	for p := byte(0); p < 4; p++ {
		chain = append(chain, ktOp(3, p), 1, 2, ktOp(3, p), 2, 1)
	}
	chain = append(chain, ktOp(4, 1), 1, 2, ktOp(4, 2), 1, 2, ktOp(5, 0), 1, 2)
	chain = append(chain, ktOp(3, 1), 1, 2, ktOp(4, 0), 2, 1, ktOp(3, 2), 0, 0)
	f.Add(chain)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*ktMaxSteps {
			data = data[:3*ktMaxSteps]
		}
		s := newKTState()
		for len(data) >= 3 {
			s.step(t, [3]byte{data[0], data[1], data[2]})
			data = data[3:]
			s.check(t, len(data) < 3)
		}
	})
}
