// Package chase implements the chase procedures the paper's algorithms are
// built on:
//
//   - a tableau chase (Maier–Mendelzon–Sagiv [25], Maier–Sagiv–Yannakakis
//     [26]) for deciding implication of FDs, MVDs, JDs and embedded MVDs
//     from sets of FDs and JDs — the engine behind Theorem 1's
//     complementarity test;
//   - a dependency-basis shortcut for FD-only schemas;
//   - an instance chase over relations with labeled nulls, the engine
//     behind Theorem 3's translatability test, in both a hash-bucket
//     union-find implementation and the literal sort-based implementation
//     of the paper's Corollary.
package chase

import (
	"fmt"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// maxTableauRows bounds tableau growth under JD rules. The chase with FDs
// and full JDs always terminates, but adversarial inputs can make the
// intermediate tableau large; the limit exists to fail loudly instead of
// exhausting memory.
const maxTableauRows = 1 << 16

// tableau is a chase tableau: rows of symbol ids, with a union-find over
// symbols. Symbol c, for 0 <= c < width, is the distinguished symbol of
// column c; larger ids are nondistinguished.
type tableau struct {
	width  int
	parent []int
	rows   [][]int
	// seen maps a canonical row's hash to the indices of rows with that
	// hash (verified by element comparison on lookup).
	seen map[uint64][]int
	// b bounds the chase; err is its sticky trip, checked by run.
	b   *budget.B
	err error
	// visits accumulates row visits charged through step, published to
	// the obs layer when run finishes.
	visits int64
	// fdPasses and jdPasses count rule applications, published with
	// visits.
	fdPasses, jdPasses int64
}

// step charges n steps to the tableau's budget, recording the sticky
// error. It reports whether the chase may continue.
func (t *tableau) step(n int64) bool {
	if t.err != nil {
		return false
	}
	t.visits += n
	if err := t.b.Step(n); err != nil {
		t.err = err
		return false
	}
	return true
}

func newTableau(width int) *tableau {
	t := &tableau{width: width, seen: make(map[uint64][]int)}
	t.parent = make([]int, width)
	for i := range t.parent {
		t.parent[i] = i
	}
	return t
}

// fresh allocates a new nondistinguished symbol.
func (t *tableau) fresh() int {
	id := len(t.parent)
	t.parent = append(t.parent, id)
	return id
}

func (t *tableau) find(x int) int {
	for t.parent[x] != x {
		t.parent[x] = t.parent[t.parent[x]]
		x = t.parent[x]
	}
	return x
}

// union merges two symbols; the smaller id (distinguished symbols are
// smallest) becomes the representative. Reports whether a merge happened.
func (t *tableau) union(a, b int) bool {
	ra, rb := t.find(a), t.find(b)
	if ra == rb {
		return false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
	return true
}

// sameFind reports whether two symbol rows agree on the given columns
// after resolving through the union-find.
func (t *tableau) sameFind(a, b []int, cols []int) bool {
	for _, c := range cols {
		if t.find(a[c]) != t.find(b[c]) {
			return false
		}
	}
	return true
}

// addRow canonicalizes and inserts a row, reporting whether it was new.
func (t *tableau) addRow(row []int) bool {
	c := make([]int, t.width)
	for i, s := range row {
		c[i] = t.find(s)
	}
	h := hashInts(c)
	for _, ri := range t.seen[h] {
		if intsEqual(t.rows[ri], c) {
			return false
		}
	}
	if len(t.rows) >= maxTableauRows {
		panic(fmt.Sprintf("chase: tableau exceeded %d rows", maxTableauRows))
	}
	t.seen[h] = append(t.seen[h], len(t.rows))
	t.rows = append(t.rows, c)
	return true
}

// hashInts hashes a symbol row (FNV-1a over the words, mixed).
func hashInts(xs []int) uint64 {
	h := relation.HashSeed
	for _, x := range xs {
		h = relation.HashWord(h, value.Value(x))
	}
	return relation.HashFinish(h)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recanonicalize rewrites every row with representatives and dedups.
func (t *tableau) recanonicalize() {
	rows := t.rows
	t.rows = nil
	t.seen = make(map[uint64][]int, len(rows))
	for _, r := range rows {
		t.addRow(r)
	}
}

// applyFDs runs FD rules to fixpoint, reporting whether anything changed.
func (t *tableau) applyFDs(fds []dep.FD, cols map[attr.ID]int) bool {
	changedEver := false
	for {
		changed := false
		for _, f := range fds {
			if !t.step(int64(len(t.rows))) {
				return changedEver
			}
			t.fdPasses++
			zc := colIdx(f.From, cols)
			ac := colIdx(f.To, cols)
			// Chain rows by the hash of their resolved Z symbols; one
			// entry per distinct resolved Z (collisions verified).
			bt := relation.NewHeadTable(len(t.rows))
			next := make([]int, len(t.rows))
			for ri, row := range t.rows {
				h := relation.HashSeed
				for _, c := range zc {
					h = relation.HashWord(h, value.Value(t.find(row[c])))
				}
				h = relation.HashFinish(h)
				rep := -1
				for j := bt.Get(h); j >= 0; j = next[j] {
					if t.sameFind(t.rows[j], row, zc) {
						rep = j
						break
					}
				}
				if rep < 0 {
					next[ri] = bt.Put(h, ri)
					continue
				}
				for _, c := range ac {
					if t.union(t.rows[rep][c], row[c]) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return changedEver
		}
		changedEver = true
		t.recanonicalize()
	}
}

// applyJD runs one JD rule pass: every joinable combination of rows adds
// its joined row. Reports whether a new row appeared.
func (t *tableau) applyJD(j dep.JD, cols map[attr.ID]int) bool {
	comps := make([][]int, len(j.Components))
	for i, c := range j.Components {
		comps[i] = colIdx(c, cols)
	}
	base := make([]int, t.width)
	for i := range base {
		base[i] = -1
	}
	added := false
	n := len(t.rows)
	var rec func(depth int, acc []int)
	rec = func(depth int, acc []int) {
		if !t.step(int64(n)) {
			return
		}
		if depth == len(comps) {
			row := make([]int, t.width)
			copy(row, acc)
			if t.addRow(row) {
				added = true
			}
			return
		}
		for ri := 0; ri < n; ri++ {
			row := t.rows[ri]
			ok := true
			var touched []int
			for _, c := range comps[depth] {
				v := t.find(row[c])
				if acc[c] == -1 {
					acc[c] = v
					touched = append(touched, c)
				} else if acc[c] != v {
					ok = false
					break
				}
			}
			if ok {
				rec(depth+1, acc)
			}
			for _, c := range touched {
				acc[c] = -1
			}
		}
	}
	acc := make([]int, t.width)
	copy(acc, base)
	rec(0, acc)
	return added
}

// run chases the tableau with Σ's FDs and JDs to fixpoint, or until the
// tableau's budget trips; it returns the budget error, if any.
func (t *tableau) run(sigma *dep.Set, cols map[attr.ID]int) error {
	if m := cmetrics.Load(); m != nil {
		m.tableauRuns.Inc()
		defer func() {
			m.tableauFDPasses.Add(t.fdPasses)
			m.tableauJDPasses.Add(t.jdPasses)
			m.tableauRowVisits.Add(t.visits)
			m.tableauRows.Observe(float64(len(t.rows)))
		}()
	}
	fds := sigma.SplitFDs()
	jds := sigma.JDs()
	for {
		changed := t.applyFDs(fds, cols)
		for _, j := range jds {
			t.jdPasses++
			if t.applyJD(j, cols) {
				changed = true
			}
		}
		if t.err != nil {
			return t.err
		}
		if !changed {
			return nil
		}
	}
}

// colIdx maps an attribute set to column indices via cols.
func colIdx(s attr.Set, cols map[attr.ID]int) []int {
	out := make([]int, 0, s.Len())
	s.Each(func(id attr.ID) bool {
		out = append(out, cols[id])
		return true
	})
	return out
}

// columnMap assigns each attribute of u a column index, in ID order.
func columnMap(u *attr.Universe) map[attr.ID]int {
	m := make(map[attr.ID]int, u.Size())
	for i := 0; i < u.Size(); i++ {
		m[attr.ID(i)] = i
	}
	return m
}

// hasDistinguishedRow reports whether some row is distinguished on the
// given columns (i.e. equals the distinguished symbol of each column).
func (t *tableau) hasDistinguishedRow(colSet []int) bool {
	for _, row := range t.rows {
		ok := true
		for _, c := range colSet {
			if t.find(row[c]) != t.find(c) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ImpliesJD reports whether Σ (FDs, MVDs and JDs; EFDs are used via their
// underlying FDs, justified by Proposition 2(a)) implies the join
// dependency j, by the classical tableau chase.
func ImpliesJD(sigma *dep.Set, j dep.JD) bool {
	ok, _ := ImpliesJDBudget(nil, sigma, j)
	return ok
}

// ImpliesJDBudget is ImpliesJD under a budget: the chase charges one
// step per row examined per rule pass and aborts between passes with a
// budget.ErrExceeded-wrapping error once the budget trips.
func ImpliesJDBudget(b *budget.B, sigma *dep.Set, j dep.JD) (bool, error) {
	u := sigma.Universe()
	cols := columnMap(u)
	t := newTableau(u.Size())
	t.b = b
	for _, comp := range j.Components {
		row := make([]int, t.width)
		for c := 0; c < t.width; c++ {
			row[c] = t.fresh()
		}
		comp.Each(func(id attr.ID) bool {
			row[cols[id]] = cols[id]
			return true
		})
		t.addRow(row)
	}
	if err := t.run(sigma.WithFD(), cols); err != nil {
		return false, err
	}
	all := make([]int, t.width)
	for i := range all {
		all[i] = i
	}
	return t.hasDistinguishedRow(all), nil
}

// ImpliesMVD reports whether Σ implies the multivalued dependency m.
func ImpliesMVD(sigma *dep.Set, m dep.MVD) bool {
	return ImpliesJD(sigma, m.JD())
}

// ImpliesMVDBudget is ImpliesMVD under a budget.
func ImpliesMVDBudget(b *budget.B, sigma *dep.Set, m dep.MVD) (bool, error) {
	return ImpliesJDBudget(b, sigma, m.JD())
}

// ImpliesEmbeddedMVD reports whether Σ implies the embedded MVD
// X∩Y →→ X−Y | Y−X within X∪Y, i.e. that π_{X∪Y}(R) = π_X(R) ⋈ π_Y(R) for
// every legal R. With X∪Y = U this coincides with Σ ⊨ *[X, Y]. This is
// condition (a) of Theorem 10.
func ImpliesEmbeddedMVD(sigma *dep.Set, x, y attr.Set) bool {
	ok, _ := ImpliesEmbeddedMVDBudget(nil, sigma, x, y)
	return ok
}

// ImpliesEmbeddedMVDBudget is ImpliesEmbeddedMVD under a budget.
func ImpliesEmbeddedMVDBudget(b *budget.B, sigma *dep.Set, x, y attr.Set) (bool, error) {
	u := sigma.Universe()
	cols := columnMap(u)
	t := newTableau(u.Size())
	t.b = b
	for _, comp := range []attr.Set{x, y} {
		row := make([]int, t.width)
		for c := 0; c < t.width; c++ {
			row[c] = t.fresh()
		}
		comp.Each(func(id attr.ID) bool {
			row[cols[id]] = cols[id]
			return true
		})
		t.addRow(row)
	}
	if err := t.run(sigma.WithFD(), cols); err != nil {
		return false, err
	}
	return t.hasDistinguishedRow(colIdx(x.Union(y), cols)), nil
}

// ImpliesFD reports whether Σ (which may contain JDs) implies the
// functional dependency f, by the tableau chase.
func ImpliesFD(sigma *dep.Set, f dep.FD) bool {
	ok, _ := ImpliesFDBudget(nil, sigma, f)
	return ok
}

// ImpliesFDBudget is ImpliesFD under a budget.
func ImpliesFDBudget(b *budget.B, sigma *dep.Set, f dep.FD) (bool, error) {
	u := sigma.Universe()
	cols := columnMap(u)
	t := newTableau(u.Size())
	t.b = b
	// Row 1: all distinguished. Row 2: distinguished on f.From, fresh
	// elsewhere; remember the fresh symbols of the f.To columns.
	row1 := make([]int, t.width)
	for c := range row1 {
		row1[c] = c
	}
	t.addRow(row1)
	row2 := make([]int, t.width)
	targets := make(map[int]int) // column -> row2's fresh symbol
	for c := 0; c < t.width; c++ {
		row2[c] = t.fresh()
	}
	f.From.Each(func(id attr.ID) bool {
		row2[cols[id]] = cols[id]
		return true
	})
	f.To.Each(func(id attr.ID) bool {
		targets[cols[id]] = row2[cols[id]]
		return true
	})
	t.addRow(row2)
	if err := t.run(sigma.WithFD(), cols); err != nil {
		return false, err
	}
	for c, s := range targets {
		if t.find(s) != t.find(c) {
			return false, nil
		}
	}
	return true, nil
}

// FDOnlyImpliesMVD reports whether a set of FDs implies the MVD m, using
// the dependency-basis structure of FD-only schemas: the dependency basis
// of X consists of singletons for each attribute of X⁺ − X plus the single
// block U − X⁺. Hence X →→ Y holds iff Y − X avoids U − X⁺ entirely or
// contains all of it. Linear time; the fast path of the ablation A2.
func FDOnlyImpliesMVD(fds []dep.FD, m dep.MVD) bool {
	u := m.Universe()
	cl := closureOf(m.From, fds)
	w := u.All().Diff(cl)
	yMinusX := m.To.Diff(m.From)
	return !yMinusX.Intersects(w) || w.SubsetOf(yMinusX)
}

// closureOf is a tiny local FD closure (the full-featured one lives in
// internal/closure; chase avoids the import to keep the dependency graph a
// tree).
func closureOf(x attr.Set, fds []dep.FD) attr.Set {
	//constvet:allow budgetloop -- monotone closure over a fixed universe: each pass grows x or stops
	for changed := true; changed; {
		changed = false
		for _, f := range fds {
			if f.From.SubsetOf(x) && !f.To.SubsetOf(x) {
				x = x.Union(f.To)
				changed = true
			}
		}
	}
	return x
}
