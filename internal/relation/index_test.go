package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/value"
)

func TestTupleIndexBasic(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	r := New(u.All())
	r.InsertVals(1, 10, 100)
	r.InsertVals(2, 10, 200)
	r.InsertVals(3, 20, 300)
	ix := IndexRelation(r, []int{1})
	if ix.Len() != 3 {
		t.Fatalf("Len=%d want 3", ix.Len())
	}
	got := ix.LookupOn(Tuple{10}, []int{0})
	if len(got) != 2 {
		t.Fatalf("Lookup(10)=%d tuples, want 2", len(got))
	}
	if len(ix.LookupOn(Tuple{30}, []int{0})) != 0 {
		t.Fatal("Lookup(30) should be empty")
	}
	if !ix.Remove(Tuple{1, 10, 100}) {
		t.Fatal("Remove should find the tuple")
	}
	if ix.Remove(Tuple{1, 10, 100}) {
		t.Fatal("second Remove should miss")
	}
	if len(ix.LookupOn(Tuple{10}, []int{0})) != 1 {
		t.Fatal("one tuple should remain under key 10")
	}
	ix.Add(Tuple{4, 10, 400})
	if len(ix.LookupOn(Tuple{10}, []int{0})) != 2 || ix.Len() != 3 {
		t.Fatal("Add after Remove broke counts")
	}
}

// TestTupleIndexAgainstSelectEq drives random add/remove traffic and
// cross-checks every lookup against the relation's SelectEq.
func TestTupleIndexAgainstSelectEq(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := attr.MustUniverse("A", "B", "C")
	key := u.MustSet("B", "C")
	r := New(u.All())
	cols := []int{r.Col(u.MustSet("B").IDs()[0]), r.Col(u.MustSet("C").IDs()[0])}
	ix := NewTupleIndex(cols)
	var live []Tuple
	for step := 0; step < 400; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			nt := Tuple{value.Value(step), value.Value(rng.Intn(5)), value.Value(rng.Intn(5))}
			if r.Insert(nt) {
				ix.Add(nt)
				live = append(live, nt)
			}
		} else {
			k := rng.Intn(len(live))
			doomed := live[k]
			live = append(live[:k], live[k+1:]...)
			if !r.Delete(doomed) || !ix.Remove(doomed) {
				t.Fatalf("step %d: delete/remove failed", step)
			}
		}
		b := value.Value(rng.Intn(5))
		c := value.Value(rng.Intn(5))
		got := ix.LookupOn(Tuple{b, c}, []int{0, 1})
		want := r.SelectEq(key, Tuple{b, c})
		if len(got) != want.Len() {
			t.Fatalf("step %d: Lookup(%v,%v)=%d tuples, SelectEq=%d", step, b, c, len(got), want.Len())
		}
		for _, g := range got {
			if !want.Contains(g) {
				t.Fatalf("step %d: Lookup returned %v not in SelectEq", step, g)
			}
		}
	}
	if ix.Len() != r.Len() {
		t.Fatalf("index len %d != relation len %d", ix.Len(), r.Len())
	}
}

func TestIndexRelationKeyOrder(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	r := New(u.All())
	for i := 0; i < 8; i++ {
		r.InsertVals(value.Value(i), value.Value(i%2))
	}
	// Keyed by (B, A) — column order matters for the key layout.
	ix := IndexRelation(r, []int{1, 0})
	got := ix.LookupOn(Tuple{1, 3}, []int{0, 1})
	if len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("Lookup((B=1,A=3)) = %v", got)
	}
}

func ExampleTupleIndex() {
	u := attr.MustUniverse("E", "D")
	r := New(u.All())
	r.InsertVals(1, 7)
	r.InsertVals(2, 7)
	ix := IndexRelation(r, []int{1})
	fmt.Println(len(ix.LookupOn(Tuple{7}, []int{0})))
	// Output: 2
}
