package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// TestPadArraysBoundedByLiveRows drives 100,000 stationary inserts and
// deletes through a Session and checks that its maintained padding's
// dense arrays stay the size of the live rows. Every op pads one view
// row with a null; were the nulls drawn fresh each time, the null half
// would grow with the op count. Recycled from removed rows, no null
// index reaches the peak live rows times the padded width (here one
// column, M), and freed slots are reused, so the slots stay within the
// peak too. The stream must neither rebuild the state (a rebuild would
// reset the arrays and hide their growth) nor leave the delta path.
func TestPadArraysBoundedByLiveRows(t *testing.T) {
	s := edmSchema(t)
	u := s.Universe()
	p := MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	eID, dID, mID := u.MustSet("E").IDs()[0], u.MustSet("D").IDs()[0], u.MustSet("M").IDs()[0]
	const depts, live, pool = 8, 256, 512
	emps := make([]value.Value, pool)
	for i := range emps {
		emps[i] = syms.Const(fmt.Sprintf("e%d", i))
	}
	dept := func(d int) value.Value { return syms.Const(fmt.Sprintf("d%d", d)) }
	deptOf := make([]int, pool) // -1: not in the view
	for i := range deptOf {
		deptOf[i] = -1
		if i < live {
			deptOf[i] = i % depts
			row := make(relation.Tuple, 3)
			row[db.Col(eID)], row[db.Col(dID)], row[db.Col(mID)] = emps[i], dept(i%depts), syms.Const(fmt.Sprintf("m%d", i%depts))
			db.Insert(row)
		}
	}
	sess, err := NewSession(p, db)
	if err != nil {
		t.Fatal(err)
	}
	view := relation.New(p.ViewAttrs())
	vt := func(e int) relation.Tuple {
		t := make(relation.Tuple, 2)
		t[view.Col(eID)], t[view.Col(dID)] = emps[e], dept(deptOf[e])
		return t
	}
	st := sess.ensureInc()
	rng := rand.New(rand.NewSource(1))
	peak := st.view.Len()
	const ops = 100000
	for i := 0; i < ops; i++ {
		e := rng.Intn(pool)
		var op UpdateOp
		if deptOf[e] < 0 {
			deptOf[e] = rng.Intn(depts)
			op = Insert(vt(e))
		} else {
			op = Delete(vt(e))
			deptOf[e] = -1
		}
		if _, err := sess.Apply(op); err != nil {
			t.Fatalf("op %d (%v): %v", i, op.Kind, err)
		}
		peak = max(peak, st.view.Len())
	}
	if sess.inc != st {
		t.Fatal("the stream rebuilt the incremental state")
	}
	slots, nulls := st.pad.Extent()
	if slots > peak || nulls > peak*len(st.padCols) {
		t.Fatalf("after %d ops: %d row slots and %d null indexes for a peak of %d live rows", ops, slots, nulls, peak)
	}
	t.Logf("%d ops: %d row slots, %d null indexes, peak %d live rows", ops, slots, nulls, peak)
}
