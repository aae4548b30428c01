package relation

import (
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/value"
)

// cowFamily is a set of relations related by Clone, each paired with a
// map oracle of the tuples it must hold.
type cowFamily struct {
	u      *attr.Universe
	rels   []*Relation
	oracle []map[[2]value.Value]bool
}

// cowMaxFamily bounds the family: a Clone past it replaces a member.
// cowMaxSteps bounds the ops one input runs, keeping each exec fast.
const (
	cowMaxFamily = 6
	cowMaxSteps  = 200
)

func newCOWFamily() *cowFamily {
	u := attr.MustUniverse("A", "B")
	return &cowFamily{u: u, rels: []*Relation{New(u.All())}, oracle: []map[[2]value.Value]bool{{}}}
}

// cowTuple maps a key to a tuple; keys stay below 4608, so deletes hit.
func cowTuple(k int) Tuple {
	return Tuple{value.Value(k % 64), value.Value(k / 64)}
}

// step decodes one op from b: insert, delete, a run of inserts that
// grows the relation and its table, a run of deletes, or a Clone.
func (f *cowFamily) step(b [3]byte) {
	i := int(b[1]) % len(f.rels)
	r, o := f.rels[i], f.oracle[i]
	k := int(b[2]) * 16
	switch b[0] % 5 {
	case 0:
		t := cowTuple(k + int(b[0]>>3))
		r.Insert(t)
		o[[2]value.Value{t[0], t[1]}] = true
	case 1:
		t := cowTuple(k + int(b[0]>>3))
		r.Delete(t)
		delete(o, [2]value.Value{t[0], t[1]})
	case 2:
		// Up to 512 tuples: Clone copies a relation of up to flatMax
		// tuples outright and shares only larger ones.
		for j := 0; j < 64*(1+int(b[0]>>3)%8); j++ {
			t := cowTuple(k + j)
			r.Insert(t)
			o[[2]value.Value{t[0], t[1]}] = true
		}
	case 3:
		for j := 0; j < 48; j++ {
			t := cowTuple(k + 2*j)
			r.Delete(t)
			delete(o, [2]value.Value{t[0], t[1]})
		}
	case 4:
		c := r.Clone()
		co := make(map[[2]value.Value]bool, len(o))
		for t := range o {
			co[t] = true
		}
		if len(f.rels) < cowMaxFamily {
			f.rels, f.oracle = append(f.rels, c), append(f.oracle, co)
		} else {
			j := int(b[0]>>3) % len(f.rels)
			f.rels[j], f.oracle[j] = c, co
		}
	}
}

// cowOp encodes the op byte step decodes as op code with parameter p.
func cowOp(code, p byte) byte { return 8*p + (code+2*p)%5 }

// check verifies every member against its oracle: Len, Contains,
// Tuples and Each as sets, and, when sorted is set, Sorted in order.
func (f *cowFamily) check(t *testing.T, sorted bool) {
	t.Helper()
	for i, r := range f.rels {
		o := f.oracle[i]
		if r.Len() != len(o) {
			t.Fatalf("member %d: Len %d, oracle %d", i, r.Len(), len(o))
		}
		// A corrupt index can leave no empty slot, and lookups would
		// then spin: check its entries before any lookup.
		used := make([]bool, r.Len())
		occupied := 0
		for c, nc := 0, r.index.slots.segs(); c < nc; c++ {
			for _, s := range r.index.slots.seg(c) {
				if s.idx < 0 {
					continue
				}
				if s.idx >= r.Len() || used[s.idx] || hashTuple(r.Tuple(s.idx)) != s.hash {
					t.Fatalf("member %d: bad index slot %+v", i, s)
				}
				used[s.idx] = true
				occupied++
			}
		}
		if occupied != r.Len() {
			t.Fatalf("member %d: %d slots occupied, Len %d", i, occupied, r.Len())
		}
		for k := range o {
			if !r.Contains(Tuple{k[0], k[1]}) {
				t.Fatalf("member %d: missing %v", i, k)
			}
		}
		seen := make(map[[2]value.Value]bool, len(o))
		for _, tp := range r.Tuples() {
			k := [2]value.Value{tp[0], tp[1]}
			if !o[k] || seen[k] {
				t.Fatalf("member %d: Tuples holds %v (in oracle %v, repeated %v)", i, k, o[k], seen[k])
			}
			seen[k] = true
		}
		n := 0
		r.Each(func(j int, tp Tuple) bool {
			if j != n || !tp.Equal(r.Tuple(j)) {
				t.Fatalf("member %d: Each position %d at step %d", i, j, n)
			}
			n++
			return true
		})
		if n != len(o) {
			t.Fatalf("member %d: Each visited %d of %d", i, n, len(o))
		}
		if !sorted {
			continue
		}
		rows := r.Sorted(f.u.All())
		for j := 1; j < len(rows); j++ {
			if !rows[j-1].Less(rows[j]) {
				t.Fatalf("member %d: Sorted out of order at %d", i, j)
			}
		}
	}
}

// FuzzCloneCOW drives a family of relations through inserts, deletes
// and Clones (clones of clones, with both sides mutated afterwards),
// checking each member against its own map oracle. Runs of inserts push
// relations past one chunk and grow their tables after a clone; runs of
// deletes swap-remove across chunk boundaries and backward-shift probe
// chains that span slot chunks.
func FuzzCloneCOW(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 9, 60, 300, 600} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	// Grow, clone, then mutate both sides.
	f.Add([]byte{2, 0, 1, 2, 0, 2, 4, 0, 0, 0, 1, 9, 1, 0, 9, 3, 0, 1, 3, 1, 2, 2, 1, 40})
	// Grow member 0 past flatMax, clone it, write it (cutting it into
	// chunks and copying a few), clone it again, and keep writing it:
	// the second clone must not see writes to chunks member 0 owned.
	var grown []byte
	for k := 0; k < 5; k++ {
		grown = append(grown, cowOp(2, 7), 0, byte(32*k))
	}
	// Both sides append first: neither may write the shared slab's
	// spare capacity in place.
	grown = append(grown, cowOp(4, 0), 0, 0, cowOp(0, 20), 0, 250, cowOp(0, 21), 1, 250)
	for j := byte(0); j < 6; j++ {
		grown = append(grown, cowOp(1, j), 0, 0, cowOp(0, j), 0, 250)
	}
	grown = append(grown, cowOp(4, 0), 0, 0)
	for j := byte(6); j < 12; j++ {
		grown = append(grown, cowOp(1, j), 0, 0, cowOp(0, j), 0, 250)
	}
	f.Add(grown)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*cowMaxSteps {
			data = data[:3*cowMaxSteps]
		}
		fam := newCOWFamily()
		for len(data) >= 3 {
			fam.step([3]byte{data[0], data[1], data[2]})
			data = data[3:]
			fam.check(t, len(data) < 3)
		}
	})
}
