package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/delta"
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
	for e := 0; e < st.rowOf.Len(); e++ {
		rel.Insert(st.pad.Row(*st.rowOf.Val(e)))
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

// stageFixture is a session over EDM whose base holds departments d1
// (employees e1 and e2, manager m1) and d2 (employee e3, manager m2),
// with its incremental state built.
type stageFixture struct {
	s        *Session
	st       *incState
	syms     *value.Symbols
	db, view *relation.Relation // layout templates
}

func newStageFixture(t *testing.T) *stageFixture {
	t.Helper()
	sc := edmSchema(t)
	u := sc.Universe()
	p := MustPair(sc, u.MustSet("E", "D"), u.MustSet("D", "M"))
	f := &stageFixture{syms: value.NewSymbols(), db: relation.New(u.All()), view: relation.New(p.ViewAttrs())}
	db := relation.New(u.All())
	db.Insert(f.base("e1", "d1", "m1"))
	db.Insert(f.base("e2", "d1", "m1"))
	db.Insert(f.base("e3", "d2", "m2"))
	s, err := NewSession(p, db)
	if err != nil {
		t.Fatal(err)
	}
	f.s, f.st = s, s.ensureInc()
	if f.st == nil {
		t.Fatal("no incremental state for an FD-only pair")
	}
	return f
}

// row lays named constants out by attribute name in r's layout.
func (f *stageFixture) row(r *relation.Relation, vals map[string]string) relation.Tuple {
	t := make(relation.Tuple, r.Width())
	u := r.Attrs().Universe()
	for name, v := range vals {
		id, _ := u.Lookup(name)
		t[r.Col(id)] = f.syms.Const(v)
	}
	return t
}

func (f *stageFixture) base(e, d, m string) relation.Tuple {
	return f.row(f.db, map[string]string{"E": e, "D": d, "M": m})
}

func (f *stageFixture) viewRow(e, d string) relation.Tuple {
	return f.row(f.view, map[string]string{"E": e, "D": d})
}

// checkCounters recounts the support and legality counters from the
// session's database and compares them, entry by entry, with the
// maintained tables.
func checkCounters(t *testing.T, s *Session) {
	t.Helper()
	st := s.inc
	key := func(r relation.Tuple, cols []int) string {
		k := make([]value.Value, len(cols))
		for i, c := range cols {
			k[i] = r[c]
		}
		return fmt.Sprint(k)
	}
	supp := map[string]int{}
	for _, r := range s.db.Tuples() {
		supp[key(r, st.yDb)]++
	}
	if st.suppY.Len() != len(supp) {
		t.Fatalf("suppY: %d entries, recount %d", st.suppY.Len(), len(supp))
	}
	for e := 0; e < st.suppY.Len(); e++ {
		k := fmt.Sprint(st.suppY.Key(e))
		if got := *st.suppY.Val(e); got != supp[k] {
			t.Fatalf("suppY %s: count %d, recount %d", k, got, supp[k])
		}
	}
	for i, pl := range s.pair.artifacts().plans {
		groups := map[string]legalEntry{}
		for _, r := range s.db.Tuples() {
			k := key(r, pl[0])
			groups[k] = legalEntry{a: r[pl[1][0]], n: groups[k].n + 1}
		}
		if st.legal[i].Len() != len(groups) {
			t.Fatalf("legal[%d]: %d groups, recount %d", i, st.legal[i].Len(), len(groups))
		}
		for e := 0; e < st.legal[i].Len(); e++ {
			k := fmt.Sprint(st.legal[i].Key(e))
			if got := *st.legal[i].Val(e); got != groups[k] {
				t.Fatalf("legal[%d] %s: %+v, recount %+v", i, k, got, groups[k])
			}
		}
	}
}

// TestStageIncGuards hands stageInc the two deltas a translatable op
// never produces — one whose Δ⁻ takes a complement row's last
// supporting base row, one whose Δ⁺ breaks a Z-group — and checks that
// staging refuses each, that applyInc then falls back with the
// incremental state dropped and the database untouched, and that a
// stream of legal ops keeps every counter equal to a recount.
func TestStageIncGuards(t *testing.T) {
	cases := []struct {
		name  string
		op    func(f *stageFixture) UpdateOp
		delta func(f *stageFixture) delta.Delta
	}{
		{
			name: "last support of a complement row",
			op:   func(f *stageFixture) UpdateOp { return Delete(f.viewRow("e3", "d2")) },
			delta: func(f *stageFixture) delta.Delta {
				return delta.Delta{Minus: []relation.Tuple{f.base("e3", "d2", "m2")}}
			},
		},
		{
			name: "Z-group broken",
			op:   func(f *stageFixture) UpdateOp { return Insert(f.viewRow("e1", "d2")) },
			delta: func(f *stageFixture) delta.Delta {
				return delta.Delta{Plus: []relation.Tuple{f.base("e1", "d2", "m2")}}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newStageFixture(t)
			if f.s.stageInc(f.st, c.delta(f)) {
				t.Fatal("stageInc accepted the delta")
			}

			// The same delta through applyInc, under a forged decision.
			f = newStageFixture(t)
			op := c.op(f)
			de, ok := f.s.translateInc(f.st, op)
			want := c.delta(f)
			if !ok || fmt.Sprint(de) != fmt.Sprint(want) {
				t.Fatalf("translateInc = %v/%v, want %v", de, ok, want)
			}
			before := f.s.db.Clone()
			if f.s.applyInc(f.st, op, &Decision{Translatable: true, Reason: ReasonOK}) {
				t.Fatal("applyInc applied the delta")
			}
			if f.s.inc != nil {
				t.Fatal("applyInc kept the incremental state after a staging failure")
			}
			if !f.s.db.Equal(before) {
				t.Fatal("applyInc changed the database after a staging failure")
			}
		})
	}

	f := newStageFixture(t)
	checkCounters(t, f.s)
	for _, op := range []UpdateOp{
		Insert(f.viewRow("e4", "d2")),
		Delete(f.viewRow("e2", "d1")),
		Replace(f.viewRow("e1", "d1"), f.viewRow("e5", "d1")),
		Replace(f.viewRow("e4", "d2"), f.viewRow("e4", "d1")),
		Delete(f.viewRow("e5", "d1")),
	} {
		d, err := f.s.Apply(op)
		if err != nil || !d.Translatable {
			t.Fatalf("%v: %+v, %v", op.Kind, d, err)
		}
		if f.s.inc != f.st {
			t.Fatalf("%v: applied off the incremental path", op.Kind)
		}
		checkCounters(t, f.s)
	}
}
