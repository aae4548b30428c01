package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// checkPaddingMatchesBatch asserts that the session's maintained
// padding resolves every value of its live rows exactly as a batch
// chase of those rows does. Decisions alone cannot show a padding that
// lost a merge: a missing equality only makes the incremental decider
// prove less and fall back to the full path, which answers the same.
func checkPaddingMatchesBatch(t *testing.T, s *Session) {
	t.Helper()
	st := s.inc
	if st == nil {
		return
	}
	rel := relation.New(s.pair.schema.u.All())
	for _, id := range st.rowOf {
		rel.Insert(st.pad.Row(id))
	}
	res := chase.Instance(rel, s.pair.artifacts().splitFDs)
	for _, row := range rel.Tuples() {
		for _, v := range row {
			if got, want := st.pad.Find(v), res.Find(v); got != want {
				t.Fatalf("padding resolves %v to %v, a batch chase to %v", v, got, want)
			}
		}
	}
}

// TestIncrementalHotGroupMatchesFull runs a stream shaped like a
// serving workload that lands in one wide department: delete and
// replace churn among its employees, then inserts of new ones. Every
// op must decide and apply as on the full path, and after every op the
// maintained padding must match a batch chase — in particular, once a
// removal took the member the department's D-key was filed under, the
// next insert must still join the survivors' M class.
func TestIncrementalHotGroupMatchesFull(t *testing.T) {
	reg := obs.NewRegistry()
	chase.SetMetrics(reg)
	defer chase.SetMetrics(nil)

	s := edmSchema(t)
	u := s.Universe()
	p := MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	view := relation.New(p.ViewAttrs())
	eID, dID, mID := u.MustSet("E").IDs()[0], u.MustSet("D").IDs()[0], u.MustSet("M").IDs()[0]
	next := 0
	newEmp := func() value.Value {
		next++
		return syms.Const(fmt.Sprintf("e%d", next))
	}
	vt := func(e value.Value, d int) relation.Tuple {
		t := make(relation.Tuple, 2)
		t[view.Col(eID)], t[view.Col(dID)] = e, syms.Const(fmt.Sprintf("d%d", d))
		return t
	}
	var wide []value.Value // the live employees of department 0
	for i := 0; i < 96; i++ {
		e, d := newEmp(), 0
		if i%8 == 7 {
			d = 1 + i%3
		} else {
			wide = append(wide, e)
		}
		row := make(relation.Tuple, 3)
		row[db.Col(eID)], row[db.Col(dID)], row[db.Col(mID)] = e, syms.Const(fmt.Sprintf("d%d", d)), syms.Const(fmt.Sprintf("m%d", d))
		db.Insert(row)
	}

	inc, err := NewSession(p, db)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewSession(p, db)
	if err != nil {
		t.Fatal(err)
	}
	full.SetIncremental(false)
	applied := 0
	apply := func(i int, op UpdateOp) {
		t.Helper()
		di, erri := inc.Apply(op)
		df, errf := full.Apply(op)
		if fmt.Sprint(erri) != fmt.Sprint(errf) || (di == nil) != (df == nil) ||
			(di != nil && (di.Translatable != df.Translatable || di.Reason != df.Reason)) {
			t.Fatalf("op %d (%v): incremental %+v/%v, full %+v/%v", i, op.Kind, di, erri, df, errf)
		}
		if erri == nil {
			applied++
		}
		checkPaddingMatchesBatch(t, inc)
	}

	rng := rand.New(rand.NewSource(5))
	pick := func() int {
		// Half the time the longest-lived member: once the initial rows
		// have churned out, its null roots the department's M class and
		// its row holds the D-key's bucket entry.
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Intn(len(wide))
	}
	for i := 0; i < 400; i++ {
		k := pick()
		e := wide[k]
		wide = append(wide[:k], wide[k+1:]...)
		if rng.Intn(2) == 0 && len(wide) > 32 {
			apply(i, Delete(vt(e, 0)))
			continue
		}
		n := newEmp()
		wide = append(wide, n)
		apply(i, Replace(vt(e, 0), vt(n, 0)))
	}
	for i := 0; i < 100; i++ {
		n := newEmp()
		wide = append(wide, n)
		apply(400+i, Insert(vt(n, 0)))
	}
	if applied != 500 {
		t.Fatalf("%d of 500 ops applied; the stream is built to apply them all", applied)
	}
	if !inc.Database().Equal(full.Database()) {
		t.Fatal("final databases diverged")
	}
	if c := reg.Snapshot().Counters; c["chase_maintained_detach_total"] == 0 || c["chase_maintained_rechase_total"] != 0 {
		t.Fatalf("every removal in the department should detach: %v", c)
	}
}
