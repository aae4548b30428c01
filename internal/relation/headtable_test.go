package relation

import (
	"math/rand"
	"testing"
)

// TestHeadTableSetDelete drives a growing HeadTable through random Set
// and Delete calls against a map. Keys come from a small domain and a
// few are forced into one probe run, so deletions backward-shift
// entries across wrapped runs and the table grows several times.
func TestHeadTableSetDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ht := NewHeadTable(0)
	want := map[uint64]int{}
	key := func() uint64 {
		if rng.Intn(4) == 0 {
			// Same low bits: one home slot at every table size here.
			return uint64(rng.Intn(8)) << 40
		}
		return uint64(rng.Intn(300))
	}
	for step := 0; step < 20000; step++ {
		k := key()
		if rng.Intn(3) == 0 {
			ht.Delete(k)
			delete(want, k)
		} else {
			v := rng.Intn(1000)
			ht.Set(k, v)
			want[k] = v
		}
		if ht.n != len(want) {
			t.Fatalf("step %d: %d entries counted, want %d", step, ht.n, len(want))
		}
		if step%97 == 0 {
			check := func(k uint64) {
				v, ok := want[k]
				if !ok {
					v = -1
				}
				if got := ht.Get(k); got != v {
					t.Fatalf("step %d: Get(%#x) = %d, want %d", step, k, got, v)
				}
			}
			for k := uint64(0); k < 300; k++ {
				check(k)
			}
			for i := uint64(0); i < 8; i++ {
				check(i << 40)
			}
		}
	}
	if len(ht.slots)*3 < ht.n*4 {
		t.Fatalf("%d entries in %d slots: load above 3/4", ht.n, len(ht.slots))
	}
}
