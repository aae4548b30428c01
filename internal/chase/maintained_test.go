package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// maintainedFixture is a random schema plus a generator of raw rows with
// per-row fresh nulls (the Maintained precondition).
type maintainedFixture struct {
	u     *attr.Universe
	fds   []dep.FD
	plans Plans
	rel   *relation.Relation // empty template for layout
	gen   value.NullGen
	next  int64 // unique constant for column 0
	rng   *rand.Rand
}

func newMaintainedFixture(rng *rand.Rand, w, nfds int) *maintainedFixture {
	names := make([]string, w)
	for i := range names {
		names[i] = fmt.Sprintf("A%02d", i)
	}
	u := attr.MustUniverse(names...)
	var fds []dep.FD
	for len(fds) < nfds {
		lhs, rhs := u.Empty(), u.Empty()
		for a := 0; a < w; a++ {
			switch rng.Intn(3) {
			case 0:
				lhs = lhs.With(attr.ID(a))
			case 1:
				rhs = rhs.With(attr.ID(a))
			}
		}
		rhs = rhs.Diff(lhs)
		if lhs.IsEmpty() || rhs.IsEmpty() {
			continue
		}
		// Split to single-attribute RHS, as core's artifacts do.
		for _, id := range rhs.IDs() {
			fds = append(fds, dep.NewFD(lhs, u.Empty().With(id)))
		}
	}
	rel := relation.New(u.All())
	return &maintainedFixture{
		u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel, rng: rng,
	}
}

// row builds a random raw row: column 0 is a unique constant (so rows
// are distinct), other columns draw a small-domain constant or a fresh
// null.
func (fx *maintainedFixture) row() relation.Tuple {
	w := fx.u.Size()
	t := make(relation.Tuple, w)
	t[0] = value.Value(1000 + fx.next)
	fx.next++
	for c := 1; c < w; c++ {
		if fx.rng.Intn(2) == 0 {
			t[c] = value.Value(fx.rng.Intn(4))
		} else {
			t[c] = fx.gen.Fresh()
		}
	}
	return t
}

// batchChase runs the batch chase over the given raw rows.
func (fx *maintainedFixture) batchChase(rows []relation.Tuple) *Result {
	r := relation.New(fx.u.All())
	for _, t := range rows {
		r.Insert(t)
	}
	return Instance(r, fx.fds)
}

// checkAgainstBatch asserts that the maintained fixpoint resolves every
// value of the live rows exactly as a fresh batch chase would (canonical
// representatives are order-independent, see the Maintained doc).
func checkAgainstBatch(t *testing.T, fx *maintainedFixture, m *Maintained, live map[int]relation.Tuple) {
	t.Helper()
	rows := make([]relation.Tuple, 0, len(live))
	for _, row := range live {
		rows = append(rows, row)
	}
	res := fx.batchChase(rows)
	if m.ConstClash() != res.ConstClash() {
		t.Fatalf("clash mismatch: maintained=%v batch=%v", m.ConstClash(), res.ConstClash())
	}
	if m.ConstClash() {
		return
	}
	for _, row := range rows {
		for _, v := range row {
			if got, want := m.Find(v), res.Find(v); got != want {
				t.Fatalf("Find(%v): maintained=%v batch=%v", v, got, want)
			}
		}
	}
}

func TestMaintainedMatchesBatchChase(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fx := newMaintainedFixture(rng, 3+rng.Intn(2), 3+rng.Intn(3))
			m := NewMaintained(fx.plans)
			live := map[int]relation.Tuple{}
			var ids []int
			for step := 0; step < 60; step++ {
				if len(ids) == 0 || rng.Intn(3) != 0 {
					row := fx.row()
					id := m.AddRow(row)
					live[id] = row
					ids = append(ids, id)
				} else {
					k := rng.Intn(len(ids))
					id := ids[k]
					ids = append(ids[:k], ids[k+1:]...)
					delete(live, id)
					m.RemoveRow(id)
				}
				if m.ConstClash() {
					// Latched: verify parity once and stop this stream.
					checkAgainstBatch(t, fx, m, live)
					return
				}
				checkAgainstBatch(t, fx, m, live)
			}
			if m.Alive() != len(live) {
				t.Fatalf("alive=%d want %d", m.Alive(), len(live))
			}
		})
	}
	t.Run("wide-group", checkWideGroup)
}

// wideGroupFixture is the chained-FD shape of the paper's EDM view
// padding, over K E D M with K→E, E→D, D→M: every row carries a unique
// key constant K, most rows share one E, and D and M are fresh nulls
// or, now and then, the constant that E's (or D's) group fixes — so a
// single Z-key group holds most rows and every merge chains through it.
type wideGroupFixture struct {
	fx     *maintainedFixture
	groups int
}

func newWideGroupFixture(rng *rand.Rand) *wideGroupFixture {
	u := attr.MustUniverse("K", "E", "D", "M")
	fds := []dep.FD{
		dep.NewFD(u.MustSet("K"), u.MustSet("E")),
		dep.NewFD(u.MustSet("E"), u.MustSet("D")),
		dep.NewFD(u.MustSet("D"), u.MustSet("M")),
	}
	rel := relation.New(u.All())
	return &wideGroupFixture{
		fx:     &maintainedFixture{u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel, rng: rng},
		groups: 3,
	}
}

// row draws a member of group 0 with probability wide, else of one of
// the other groups. Constants are derived from the group, so the chase
// never clashes.
func (w *wideGroupFixture) row(wide float64) relation.Tuple {
	fx := w.fx
	g := 0
	if fx.rng.Float64() >= wide {
		g = 1 + fx.rng.Intn(w.groups-1)
	}
	t := relation.Tuple{value.Value(1000 + fx.next), value.Value(100 + g), fx.gen.Fresh(), fx.gen.Fresh()}
	fx.next++
	if fx.rng.Intn(8) == 0 {
		t[2] = value.Value(200 + g)
	}
	if fx.rng.Intn(8) == 0 {
		t[3] = value.Value(300 + g)
	}
	return t
}

// checkWideGroup: 64 rows share one Z-key under the chained E→D, D→M
// pair, then 400 random AddRow/RemoveRow steps keep the group wide;
// after every step the maintained fixpoint must resolve every value
// exactly as a batch chase of the live rows.
func checkWideGroup(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := newWideGroupFixture(rng)
			m := NewMaintained(w.fx.plans)
			live := map[int]relation.Tuple{}
			var ids []int
			for len(ids) < 64 {
				row := w.row(1)
				id := m.AddRow(row)
				live[id] = row
				ids = append(ids, id)
			}
			checkAgainstBatch(t, w.fx, m, live)
			for step := 0; step < 400; step++ {
				if rng.Intn(2) == 0 {
					row := w.row(0.8)
					id := m.AddRow(row)
					live[id] = row
					ids = append(ids, id)
				} else {
					k := rng.Intn(len(ids))
					id := ids[k]
					ids = append(ids[:k], ids[k+1:]...)
					delete(live, id)
					m.RemoveRow(id)
				}
				if m.ConstClash() {
					t.Fatalf("step %d: fixture must never clash", step)
				}
				checkAgainstBatch(t, w.fx, m, live)
			}
			if m.Alive() != len(live) {
				t.Fatalf("alive=%d want %d", m.Alive(), len(live))
			}
		})
	}
}

// TestMaintainedStationaryStreamNeedsNoRebuild pins what keeps a
// serving session's per-op cost steady: under the shape of the EDM view
// padding (E→D, D→M over rows of a unique E, one of a few department
// constants and a fresh M null), a stationary stream — each step removes
// a live row and adds a new one — reuses the slots it frees and leaves
// no stale entries behind, so the fixpoint never asks for a rebuild and
// its storage stays the size of the live rows.
func TestMaintainedStationaryStreamNeedsNoRebuild(t *testing.T) {
	u := attr.MustUniverse("E", "D", "M")
	fds := []dep.FD{
		dep.NewFD(u.MustSet("E"), u.MustSet("D")),
		dep.NewFD(u.MustSet("D"), u.MustSet("M")),
	}
	rel := relation.New(u.All())
	fx := &maintainedFixture{u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel}
	rng := rand.New(rand.NewSource(1))
	m := NewMaintained(fx.plans)
	live := map[int]relation.Tuple{}
	add := func() int {
		row := relation.Tuple{value.Value(1000 + fx.next), value.Value(rng.Intn(4)), fx.gen.Fresh()}
		fx.next++
		id := m.AddRow(row)
		live[id] = row
		return id
	}
	const size = 256
	ids := make([]int, size)
	for i := range ids {
		ids[i] = add()
	}
	for step := 0; step < 4000; step++ {
		k := rng.Intn(size)
		delete(live, ids[k])
		m.RemoveRow(ids[k])
		ids[k] = add()
		if m.Wasteful() {
			t.Fatalf("step %d: a stationary stream asked for a rebuild", step)
		}
		if step%100 == 0 {
			checkAgainstBatch(t, fx, m, live)
		}
	}
	checkAgainstBatch(t, fx, m, live)
	if len(m.rows) != size || m.Alive() != size {
		t.Errorf("%d row slots for %d live rows, want %d", len(m.rows), m.Alive(), size)
	}
	if limit := len(m.plans) * size; m.entries > limit {
		t.Errorf("%d bucket entries for %d live rows, want at most %d", m.entries, size, limit)
	}
}

// TestMaintainedRevisitsMovedClassMembers pins the worklist's unit of
// work: when a class loses a merge, every raw value of that class moves
// to the new representative, and a row holding a non-root member can
// gain an FD match that no row holding the old root gains. Here S's A
// cell is n2, merged under R's n1 through P→A; U then merges n1's class
// into the constant a through Q→A, which gives S the {A,B}-key of T —
// but R, the only row holding n1, keys elsewhere.
func TestMaintainedRevisitsMovedClassMembers(t *testing.T) {
	u := attr.MustUniverse("K", "P", "Q", "A", "B", "C")
	fds := []dep.FD{
		dep.NewFD(u.MustSet("P"), u.MustSet("A")),
		dep.NewFD(u.MustSet("Q"), u.MustSet("A")),
		dep.NewFD(u.MustSet("A", "B"), u.MustSet("C")),
	}
	rel := relation.New(u.All())
	fx := &maintainedFixture{u: u, fds: fds, plans: PlanFDs(rel, fds), rel: rel}
	m := NewMaintained(fx.plans)
	var gen value.NullGen
	const a, b1, b2, b9 = 50, 61, 62, 69
	mT, n1, mR, n2, mS, mU := gen.Fresh(), gen.Fresh(), gen.Fresh(), gen.Fresh(), gen.Fresh(), gen.Fresh()
	rows := []relation.Tuple{
		{1, 10, 20, a, b2, mT},  // T
		{2, 11, 21, n1, b1, mR}, // R
		{3, 11, 22, n2, b2, mS}, // S: P→A puts n2 under n1
		{4, 12, 21, a, b9, mU},  // U: Q→A merges n1's class into a
	}
	live := map[int]relation.Tuple{}
	for _, row := range rows {
		live[m.AddRow(row)] = row
	}
	checkAgainstBatch(t, fx, m, live)
	if m.Find(mS) != m.Find(mT) {
		t.Fatal("S and T share {A,B} after the merge, so their C cells must be one class")
	}
}

func TestMaintainedConstClash(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	fds := []dep.FD{dep.NewFD(u.MustSet("A"), u.MustSet("B"))}
	plans := PlanFDs(relation.New(u.All()), fds)
	m := NewMaintained(plans)
	m.AddRow(relation.Tuple{0, 1})
	if m.ConstClash() {
		t.Fatal("unexpected clash")
	}
	m.AddRow(relation.Tuple{0, 2})
	if !m.ConstClash() {
		t.Fatal("expected const/const clash")
	}
}

// TestMaintainedRemoveRestoresComponent checks the removal re-chase: a
// merge derived only through a removed row must disappear.
func TestMaintainedRemoveRestoresComponent(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	fds := []dep.FD{dep.NewFD(u.MustSet("A"), u.MustSet("B"))}
	plans := PlanFDs(relation.New(u.All()), fds)
	m := NewMaintained(plans)
	var gen value.NullGen
	n0, n1 := gen.Fresh(), gen.Fresh()
	id0 := m.AddRow(relation.Tuple{7, n0})
	m.AddRow(relation.Tuple{7, n1})
	if m.Find(n0) != m.Find(n1) {
		t.Fatal("expected n0 ≡ n1 via shared A")
	}
	m.RemoveRow(id0)
	if m.Find(n1) != n1 {
		t.Fatalf("n1 should be its own class after removal, got %v", m.Find(n1))
	}
	if m.Find(n0) != n0 {
		t.Fatalf("removed row's null should be reset, got %v", m.Find(n0))
	}
	if m.Alive() != 1 {
		t.Fatalf("alive=%d want 1", m.Alive())
	}
}

// TestMOverlayMatchesOverlay checks the overlay over a Maintained and
// the overlay over a batch Prepared against the from-scratch definition
// (checkOverlay) on random fixpoints and impositions. Each seed draws
// fixtures until one does not clash, so every seed runs.
func TestMOverlayMatchesOverlay(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + seed))
			var fx *maintainedFixture
			var m *Maintained
			live := map[int]relation.Tuple{}
			for draw := 0; ; draw++ {
				if draw == 1000 {
					t.Fatal("no unclashed fixpoint in 1000 draws")
				}
				fx = newMaintainedFixture(rng, 4, 4)
				m = NewMaintained(fx.plans)
				clear(live)
				for i := 0; i < 16; i++ {
					row := fx.row()
					live[m.AddRow(row)] = row
				}
				if !m.ConstClash() {
					break
				}
			}
			for trial := 0; trial < 20; trial++ {
				checkOverlay(t, fx, m, live, rng)
			}
		})
	}
}

// TestMaintainedProbeSkipsOwnStaleEntry pins the probe rule that a row's
// own bucket entry never stands for its group. With A→C and C→B over
// rows (key, A, B, C): r8 = (⊥a, ⊥a, 3) takes A = 3 from r1's C→B match,
// and r12 = (3, ⊥c, ⊥c) then joins r8's A-group without being filed.
// Removing r1 re-chases r8 and r12 apart and leaves r8 filed under the
// hash of 3, ahead of r12. When a new row resolves ⊥a to 3 again, r8
// must still merge with r12.
func TestMaintainedProbeSkipsOwnStaleEntry(t *testing.T) {
	u := attr.MustUniverse("K", "A", "B", "C")
	fds := []dep.FD{
		dep.NewFD(u.MustSet("A"), u.MustSet("C")),
		dep.NewFD(u.MustSet("C"), u.MustSet("B")),
	}
	fx := &maintainedFixture{u: u, fds: fds, plans: PlanFDs(relation.New(u.All()), fds)}
	m := NewMaintained(fx.plans)
	live := map[int]relation.Tuple{}
	add := func(row relation.Tuple) int {
		id := m.AddRow(row)
		live[id] = row
		checkAgainstBatch(t, fx, m, live)
		return id
	}
	const three = value.Value(3)
	a, c := fx.gen.Fresh(), fx.gen.Fresh()
	r1 := add(relation.Tuple{1001, fx.gen.Fresh(), three, three})
	add(relation.Tuple{1008, a, a, three})
	add(relation.Tuple{1012, three, c, c})
	delete(live, r1)
	m.RemoveRow(r1)
	checkAgainstBatch(t, fx, m, live)
	if m.Find(a) == three || m.Find(c) == three {
		t.Fatal("removing r1 left its merges in place")
	}
	add(relation.Tuple{1013, fx.gen.Fresh(), three, three})
	if m.Find(c) != three {
		t.Fatalf("Find(%v) = %v, want 3", c, m.Find(c))
	}
}
