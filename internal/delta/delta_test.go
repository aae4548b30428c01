package delta

import (
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/relation"
)

// TestApplyToAndInverse checks ApplyTo's counts, which the incremental
// apply compares against the delta's sides to detect a translation
// that disagrees with the instance, and that the delta with its sides
// swapped undoes a delta whose every tuple took effect.
func TestApplyToAndInverse(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	r := relation.New(u.All())
	r.InsertVals(1, 1)
	r.InsertVals(2, 2)
	var d Delta
	d.AddPlus(relation.Tuple{3, 3})
	d.AddPlus(relation.Tuple{2, 2}) // already present
	d.AddMinus(relation.Tuple{1, 1})
	d.AddMinus(relation.Tuple{9, 9}) // absent
	ins, del := d.ApplyTo(r)
	if ins != 1 || del != 1 {
		t.Fatalf("ApplyTo: ins=%d del=%d, want 1 and 1", ins, del)
	}
	if !r.Contains(relation.Tuple{3, 3}) || r.Contains(relation.Tuple{1, 1}) || r.Len() != 2 {
		t.Fatal("ApplyTo result wrong")
	}

	before := r.Clone()
	var clean Delta
	clean.AddPlus(relation.Tuple{4, 4})
	clean.AddMinus(relation.Tuple{2, 2})
	if ins, del := clean.ApplyTo(r); ins != 1 || del != 1 {
		t.Fatalf("clean ApplyTo: ins=%d del=%d, want 1 and 1", ins, del)
	}
	inv := Delta{Plus: clean.Minus, Minus: clean.Plus}
	if ins, del := inv.ApplyTo(r); ins != 1 || del != 1 {
		t.Fatalf("inverse ApplyTo: ins=%d del=%d, want 1 and 1", ins, del)
	}
	if !r.Equal(before) {
		t.Fatalf("inverse round-trip failed: %d tuples vs %d", r.Len(), before.Len())
	}
}
