package relation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/value"
)

// nestedLoopJoin is the obvious O(|r|·|s|) reference join the fast
// kernels are checked against.
func nestedLoopJoin(r, s *Relation) *Relation {
	shared := r.Attrs().Intersect(s.Attrs())
	rm := r.projector(shared)
	sm := s.projector(shared)
	out, fromR, fromS := joinPlan(r, s)
	for _, rt := range r.Tuples() {
		for _, st := range s.Tuples() {
			if !equalOn(rt, rm, st, sm) {
				continue
			}
			nt := make(Tuple, len(out.cols))
			for i := range nt {
				if fromR[i] >= 0 {
					nt[i] = rt[fromR[i]]
				} else {
					nt[i] = st[fromS[i]]
				}
			}
			out.Insert(nt)
		}
	}
	return out
}

// randomRelation builds a relation over the given attrs with n random
// tuples mixing constants and labeled nulls.
func randomRelation(rng *rand.Rand, set attr.Set, syms *value.Symbols, n, domain int) *Relation {
	r := New(set)
	w := set.Len()
	for i := 0; i < n; i++ {
		t := make(Tuple, w)
		for c := range t {
			k := rng.Intn(domain)
			if rng.Intn(4) == 0 {
				t[c] = value.Null(int64(k)) // labeled null
			} else {
				t[c] = syms.Const(fmt.Sprintf("c%d", k))
			}
		}
		r.Insert(t)
	}
	return r
}

// TestJoinEquivalence checks HashJoin ≡ SortMergeJoin ≡ nested-loop
// reference on randomized relations with overlapping schemas, both with
// the serial kernels and with parallelism forced on. The parallel runs
// must match the serial output tuple-for-tuple, in order.
func TestJoinEquivalence(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C", "D", "E")
	schemas := [][2]string{
		{"A B C", "B C D"}, // two shared columns
		{"A B", "B C"},     // one shared column
		{"A B", "C D"},     // disjoint: Cartesian product
		{"A B C", "A B C"}, // identical schemas: intersection
		{"A B C D", "D E"},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		syms := value.NewSymbols()
		sc := schemas[rng.Intn(len(schemas))]
		rs, err := u.ParseSet(sc[0])
		if err != nil {
			t.Fatal(err)
		}
		ss, err := u.ParseSet(sc[1])
		if err != nil {
			t.Fatal(err)
		}
		domain := 2 + rng.Intn(8)
		r := randomRelation(rng, rs, syms, rng.Intn(60), domain)
		s := randomRelation(rng, ss, syms, rng.Intn(60), domain)

		want := nestedLoopJoin(r, s)
		hj := r.JoinWith(s, HashJoin)
		sm := r.JoinWith(s, SortMergeJoin)
		if !hj.Equal(want) {
			t.Logf("seed %d: hash join ≠ nested loop (%d vs %d tuples)", seed, hj.Len(), want.Len())
			return false
		}
		if !sm.Equal(want) {
			t.Logf("seed %d: sort-merge join ≠ nested loop", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sameTuplesInOrder reports whether two relations hold identical tuples
// in identical order (stronger than Equal, which is order-free).
func sameTuplesInOrder(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	at, bt := a.Tuples(), b.Tuples()
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return false
		}
	}
	return true
}

// TestParallelKernelsDeterministic drives every parallel kernel above
// the serial-fallback threshold and checks the output is tuple-for-tuple
// identical to the serial result, for several worker counts.
func TestParallelKernelsDeterministic(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C", "D")
	syms := value.NewSymbols()
	rng := rand.New(rand.NewSource(7))
	rs, _ := u.ParseSet("A B C")
	ss, _ := u.ParseSet("B C D")
	n := 2*parallelThreshold + 137
	r := randomRelation(rng, rs, syms, n, 40)
	s := randomRelation(rng, ss, syms, n, 40)

	defer Parallelism(1)
	Parallelism(1)
	serialJoin := r.Join(s)
	bc, _ := u.ParseSet("B C")
	serialProj := r.Project(bc)
	key := Tuple{r.Tuple(0)[1], r.Tuple(0)[2]}
	serialSel := r.SelectEq(bc, key)

	for _, nw := range []int{2, 3, 8} {
		Parallelism(nw)
		if got := r.Join(s); !sameTuplesInOrder(got, serialJoin) {
			t.Errorf("workers=%d: parallel join differs from serial", nw)
		}
		if got := r.Project(bc); !sameTuplesInOrder(got, serialProj) {
			t.Errorf("workers=%d: parallel Project differs from serial", nw)
		}
		if got := r.SelectEq(bc, key); !sameTuplesInOrder(got, serialSel) {
			t.Errorf("workers=%d: parallel SelectEq differs from serial", nw)
		}
	}
}

// TestIndexOracle fuzzes Insert/Delete/Contains against a map-based
// reference set.
func TestIndexOracle(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		syms := value.NewSymbols()
		r := New(u.All())
		ref := map[string]bool{}
		keyOf := func(t Tuple) string { return fmt.Sprint([]value.Value(t)) }
		mkTuple := func() Tuple {
			t := make(Tuple, 3)
			for c := range t {
				k := rng.Intn(12)
				if rng.Intn(3) == 0 {
					t[c] = value.Null(int64(k))
				} else {
					t[c] = syms.Const(fmt.Sprintf("c%d", k))
				}
			}
			return t
		}
		for op := 0; op < 300; op++ {
			tp := mkTuple()
			k := keyOf(tp)
			switch rng.Intn(3) {
			case 0:
				if r.Insert(tp) == ref[k] {
					t.Logf("seed %d op %d: Insert(%v) disagreed with oracle", seed, op, tp)
					return false
				}
				ref[k] = true
			case 1:
				if r.Delete(tp) != ref[k] {
					t.Logf("seed %d op %d: Delete(%v) disagreed with oracle", seed, op, tp)
					return false
				}
				delete(ref, k)
			default:
				if r.Contains(tp) != ref[k] {
					t.Logf("seed %d op %d: Contains(%v) disagreed with oracle", seed, op, tp)
					return false
				}
			}
			if r.Len() != len(ref) {
				t.Logf("seed %d op %d: Len %d, oracle %d", seed, op, r.Len(), len(ref))
				return false
			}
		}
		// Everything the oracle holds must be found, and vice versa.
		for _, tp := range r.Tuples() {
			if !ref[keyOf(tp)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
