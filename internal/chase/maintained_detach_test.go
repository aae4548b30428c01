package chase

import (
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// detachHarness drives a Maintained over the EDM padding shape — E→D
// and D→M over rows of a unique employee constant, a department
// constant and a fresh M null, optionally followed by a free column N
// in no FD — checking batch-chase parity after every step and counting
// which RemoveRow path ran.
type detachHarness struct {
	t    *testing.T
	fx   *maintainedFixture
	m    *Maintained
	live map[int]relation.Tuple
	reg  *obs.Registry
	next int64
}

func newDetachHarness(t *testing.T, withN bool) *detachHarness {
	names := []string{"E", "D", "M"}
	if withN {
		names = append(names, "N")
	}
	u := attr.MustUniverse(names...)
	fds := []dep.FD{
		dep.NewFD(u.MustSet("E"), u.MustSet("D")),
		dep.NewFD(u.MustSet("D"), u.MustSet("M")),
	}
	rel := relation.New(u.All())
	fx := &maintainedFixture{u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel}
	reg := obs.NewRegistry()
	SetMetrics(reg)
	t.Cleanup(func() { SetMetrics(nil) })
	return &detachHarness{t: t, fx: fx, m: NewMaintained(fx.plans), live: map[int]relation.Tuple{}, reg: reg}
}

// null returns a fresh labeled null.
func (h *detachHarness) null() value.Value { return h.fx.gen.Fresh() }

// add inserts a row of department d whose M cell is m (and whose N
// cell, when the layout has one, is n), with a fresh employee constant.
func (h *detachHarness) add(d, m value.Value, n ...value.Value) int {
	h.t.Helper()
	row := append(relation.Tuple{value.Value(1000 + h.next), d, m}, n...)
	h.next++
	id := h.m.AddRow(row)
	h.live[id] = row
	checkAgainstBatch(h.t, h.fx, h.m, h.live)
	return id
}

// remove deletes row id, checks parity, checks that the row's nulls
// resolve to themselves again, and reports which path ran.
func (h *detachHarness) remove(id int) (detached bool) {
	h.t.Helper()
	row := h.live[id]
	before := h.reg.Snapshot().Counters["chase_maintained_detach_total"]
	delete(h.live, id)
	h.m.RemoveRow(id)
	checkAgainstBatch(h.t, h.fx, h.m, h.live)
	for _, v := range row {
		if v.IsNull() && h.m.Find(v) != v {
			h.t.Fatalf("removed row's null %v still resolves to %v", v, h.m.Find(v))
		}
	}
	return h.reg.Snapshot().Counters["chase_maintained_detach_total"] > before
}

// mustDetach and mustRechase remove row id and assert the path taken.
func (h *detachHarness) mustDetach(id int) {
	h.t.Helper()
	if !h.remove(id) {
		h.t.Fatalf("removing row %d re-chased, want a detach", id)
	}
}

func (h *detachHarness) mustRechase(id int) {
	h.t.Helper()
	if h.remove(id) {
		h.t.Fatalf("removing row %d detached, want a re-chase", id)
	}
}

const detachDept, otherDept = 7, 8

// TestMaintainedDetach drives each branch of RemoveRow's detach path
// and each of its fallback triggers, checking batch-chase parity after
// every step.
func TestMaintainedDetach(t *testing.T) {
	t.Run("non-root", func(t *testing.T) {
		h := newDetachHarness(t, false)
		var ids []int
		for i := 0; i < 4; i++ {
			ids = append(ids, h.add(detachDept, h.null()))
		}
		// Row 2's null is neither its class root (row 0's, the oldest)
		// nor filed for D→M. The root's removals after it must not pick
		// the removed null back up.
		h.mustDetach(ids[2])
		h.mustDetach(ids[0])
		h.mustDetach(ids[1])
		h.mustDetach(ids[3])
	})

	t.Run("class-root-fifo", func(t *testing.T) {
		h := newDetachHarness(t, false)
		var ids []int
		for i := 0; i < 6; i++ {
			ids = append(ids, h.add(detachDept, h.null()))
			h.add(otherDept, h.null())
		}
		// Oldest first: each removal takes the department's class root
		// and its D→M bucket head, and the next oldest takes over both.
		for _, id := range ids {
			h.mustDetach(id)
		}
	})

	t.Run("bucket-head-then-add", func(t *testing.T) {
		h := newDetachHarness(t, false)
		head := h.add(detachDept, h.null())
		h.add(detachDept, h.null())
		h.add(detachDept, h.null())
		h.add(otherDept, h.null())
		h.mustDetach(head)
		// The department is still filed under its D-key: the new member
		// joins the survivors' M class (parity is checked in add).
		h.add(detachDept, h.null())
		h.add(detachDept, h.null())
	})

	t.Run("component-root", func(t *testing.T) {
		h := newDetachHarness(t, false)
		first := h.add(detachDept, h.null())
		h.add(detachDept, h.null())
		h.add(detachDept, h.null())
		h.mustDetach(first)
		// The new row reuses the freed smallest slot and so roots the
		// row component, while its null is the class's newest and the
		// bucket head is a survivor.
		root := h.add(detachDept, h.null())
		if root != first {
			t.Fatalf("new row got slot %d, want the freed %d", root, first)
		}
		pin := h.add(detachDept, 99)
		h.mustDetach(root)
		// A fallback re-chase of the department must still reach every
		// survivor, the pinning row included, through the re-rooted
		// component.
		h.mustRechase(pin)
		h.add(detachDept, h.null())
	})

	t.Run("fallback-null-in-z", func(t *testing.T) {
		h := newDetachHarness(t, false)
		h.add(detachDept, h.null())
		id := h.add(h.null(), h.null()) // D is a Z column of D→M
		h.mustRechase(id)
	})

	t.Run("fallback-const-a-in-group", func(t *testing.T) {
		h := newDetachHarness(t, false)
		h.add(detachDept, h.null())
		id := h.add(detachDept, 99) // the only link from the department to 99
		h.add(detachDept, h.null())
		h.mustRechase(id)
		// Alone in its group, a constant A cell ties nothing.
		alone := h.add(otherDept, 98)
		h.mustDetach(alone)
	})

	t.Run("fallback-repeated-null", func(t *testing.T) {
		h := newDetachHarness(t, true)
		root := h.add(detachDept, h.null(), h.null())
		h.add(detachDept, h.null(), h.null())
		n := h.null()
		rep := h.add(detachDept, n, n)
		// A row holding one null twice can never detach; once one was
		// added, a class root cannot be re-picked, but a non-root can
		// still leave.
		h.mustRechase(rep)
		last := h.add(detachDept, h.null(), h.null())
		h.mustRechase(root)
		h.mustDetach(last)
	})
}

// TestMaintainedRemoveCounters pins the removal counters: a detach
// re-chases nothing, a fallback counts the survivors of the component
// it re-chased.
func TestMaintainedRemoveCounters(t *testing.T) {
	h := newDetachHarness(t, false)
	h.add(detachDept, h.null())
	h.add(detachDept, h.null())
	pin := h.add(detachDept, 99)
	h.mustRechase(pin)
	c := h.reg.Snapshot().Counters
	if c["chase_maintained_detach_total"] != 0 || c["chase_maintained_rechase_total"] != 1 ||
		c["chase_maintained_rechase_rows_total"] != 2 {
		t.Fatalf("counters after one fallback over a 3-row component: %v", c)
	}
}

// TestMaintainedRemoveBridgingNull: over A→M and B→M, the row R holds
// one null in M, the A of both plans, so it ties its A-group's M cells
// to its B-group's. Removing R must split them again, which only the
// fallback re-chase does.
func TestMaintainedRemoveBridgingNull(t *testing.T) {
	u := attr.MustUniverse("A", "B", "M")
	fds := []dep.FD{
		dep.NewFD(u.MustSet("A"), u.MustSet("M")),
		dep.NewFD(u.MustSet("B"), u.MustSet("M")),
	}
	rel := relation.New(u.All())
	fx := &maintainedFixture{u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel}
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	m := NewMaintained(fx.plans)
	const a1, a2, b1, b2 = 1, 2, 11, 12
	rows := []relation.Tuple{
		{a1, b1, fx.gen.Fresh()}, // R
		{a1, b2, fx.gen.Fresh()}, // R's A-group
		{a2, b1, fx.gen.Fresh()}, // R's B-group
	}
	live := map[int]relation.Tuple{}
	var ids []int
	for _, row := range rows {
		id := m.AddRow(row)
		live[id] = row
		ids = append(ids, id)
	}
	checkAgainstBatch(t, fx, m, live)
	delete(live, ids[0])
	m.RemoveRow(ids[0])
	checkAgainstBatch(t, fx, m, live)
	if c := reg.Snapshot().Counters; c["chase_maintained_rechase_total"] != 1 || c["chase_maintained_detach_total"] != 0 {
		t.Fatalf("a bridging null must take the fallback: %v", c)
	}
}

// TestMaintainedRemoveFallsBackOnEmptyZOrClash: a plan with an empty Z
// puts every row in one group and always takes the fallback, and so
// does every removal from a clashed fixpoint.
func TestMaintainedRemoveFallsBackOnEmptyZOrClash(t *testing.T) {
	u := attr.MustUniverse("E", "M")
	fds := []dep.FD{dep.NewFD(u.Empty(), u.MustSet("M"))}
	rel := relation.New(u.All())
	fx := &maintainedFixture{u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel}
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	m := NewMaintained(fx.plans)
	live := map[int]relation.Tuple{}
	var ids []int
	for i := 0; i < 3; i++ {
		row := relation.Tuple{value.Value(i), fx.gen.Fresh()}
		id := m.AddRow(row)
		live[id] = row
		ids = append(ids, id)
	}
	delete(live, ids[0])
	m.RemoveRow(ids[0])
	checkAgainstBatch(t, fx, m, live)
	// Over E→M, a row whose M null sits in a group with two constants.
	cm := NewMaintained(PlanFDs(rel, []dep.FD{dep.NewFD(u.MustSet("E"), u.MustSet("M"))}))
	id := cm.AddRow(relation.Tuple{0, fx.gen.Fresh()})
	cm.AddRow(relation.Tuple{0, 20})
	cm.AddRow(relation.Tuple{0, 21})
	if !cm.ConstClash() {
		t.Fatal("expected a clash")
	}
	cm.RemoveRow(id)
	if c := reg.Snapshot().Counters; c["chase_maintained_rechase_total"] != 2 || c["chase_maintained_detach_total"] != 0 {
		t.Fatalf("want two fallbacks and no detach: %v", c)
	}
}
