package relation

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/value"
)

// mk builds a relation over the named attributes of u with the given rows
// of constant names.
func mk(t testing.TB, u *attr.Universe, syms *value.Symbols, attrs string, rows ...[]string) *Relation {
	t.Helper()
	set, err := u.ParseSet(attrs)
	if err != nil {
		t.Fatal(err)
	}
	r := New(set)
	for _, row := range rows {
		tp := make(Tuple, len(row))
		for i, c := range row {
			tp[i] = syms.Const(c)
		}
		r.Insert(tp)
	}
	return r
}

func TestInsertDedup(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A B", []string{"1", "2"})
	if !r.InsertVals(syms.Const("1"), syms.Const("3")) {
		t.Error("new tuple rejected")
	}
	if r.InsertVals(syms.Const("1"), syms.Const("2")) {
		t.Error("duplicate accepted")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestInsertWrongArityPanics(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	r := New(u.All())
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong arity")
		}
	}()
	r.Insert(Tuple{0})
}

func TestInsertNamed(t *testing.T) {
	u := attr.MustUniverse("E", "D", "M")
	syms := value.NewSymbols()
	r := New(u.All())
	if err := r.InsertNamed(syms, map[string]string{"E": "ed", "D": "toys", "M": "mo"}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatal("tuple not inserted")
	}
	// Columns are in universe order E,D,M? No: ascending ID order = E,D,M.
	tp := r.Tuple(0)
	if syms.Name(tp[r.Col(mustID(u, "D"))]) != "toys" {
		t.Error("column order mixed up")
	}
	if err := r.InsertNamed(syms, map[string]string{"E": "x"}); err == nil {
		t.Error("partial tuple accepted")
	}
	if err := r.InsertNamed(syms, map[string]string{"E": "x", "D": "y", "Z": "z"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func mustID(u *attr.Universe, name string) attr.ID {
	id, ok := u.Lookup(name)
	if !ok {
		panic(name)
	}
	return id
}

func TestDelete(t *testing.T) {
	u := attr.MustUniverse("A")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A", []string{"1"}, []string{"2"}, []string{"3"})
	if !r.Delete(Tuple{syms.Const("2")}) {
		t.Error("existing tuple not deleted")
	}
	if r.Delete(Tuple{syms.Const("2")}) {
		t.Error("deleted twice")
	}
	if r.Len() != 2 || !r.Contains(Tuple{syms.Const("1")}) || !r.Contains(Tuple{syms.Const("3")}) {
		t.Error("wrong survivors")
	}
	// Index still consistent after swap-delete.
	if !r.Delete(Tuple{syms.Const("1")}) || !r.Delete(Tuple{syms.Const("3")}) {
		t.Error("index corrupted by swap-delete")
	}
	if r.Len() != 0 {
		t.Error("not empty")
	}
}

func TestProject(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A B C",
		[]string{"1", "x", "p"},
		[]string{"1", "x", "q"},
		[]string{"2", "y", "p"},
	)
	p := r.Project(u.MustSet("A", "B"))
	if p.Len() != 2 {
		t.Errorf("projection Len = %d, want 2 (dedup)", p.Len())
	}
	if !p.Contains(Tuple{syms.Const("1"), syms.Const("x")}) {
		t.Error("missing tuple")
	}
}

func TestProjectNotSubsetPanics(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	r := New(u.MustSet("A"))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	r.Project(u.MustSet("B"))
}

func TestSelect(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A B", []string{"1", "x"}, []string{"2", "x"}, []string{"3", "y"})
	x := syms.Const("x")
	s := r.Select(func(tp Tuple) bool { return tp[1] == x })
	if s.Len() != 2 {
		t.Errorf("Select Len = %d", s.Len())
	}
	se := r.SelectEq(u.MustSet("B"), Tuple{syms.Const("y")})
	if se.Len() != 1 {
		t.Errorf("SelectEq Len = %d", se.Len())
	}
}

func TestSelectEqBadKeyPanics(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A B", []string{"1", "x"})
	defer func() {
		if recover() == nil {
			t.Error("no panic on key/attrs arity mismatch")
		}
	}()
	r.SelectEq(u.MustSet("B"), Tuple{syms.Const("x"), syms.Const("y")})
}

func TestUnionDiff(t *testing.T) {
	u := attr.MustUniverse("A")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A", []string{"1"}, []string{"2"})
	s := mk(t, u, syms, "A", []string{"2"}, []string{"3"})
	un := r.Union(s)
	if un.Len() != 3 {
		t.Errorf("Union Len = %d", un.Len())
	}
	d := r.Diff(s)
	if d.Len() != 1 || !d.Contains(Tuple{syms.Const("1")}) {
		t.Errorf("Diff wrong: %v", d)
	}
	// Originals untouched.
	if r.Len() != 2 || s.Len() != 2 {
		t.Error("operands mutated")
	}
}

func TestJoinBasic(t *testing.T) {
	u := attr.MustUniverse("E", "D", "M")
	syms := value.NewSymbols()
	ed := mk(t, u, syms, "E D", []string{"ed", "toys"}, []string{"flo", "toys"}, []string{"bob", "tools"})
	dm := mk(t, u, syms, "D M", []string{"toys", "mo"}, []string{"tools", "tim"})
	for _, alg := range []JoinAlgorithm{HashJoin, SortMergeJoin} {
		j := ed.JoinWith(dm, alg)
		if j.Len() != 3 {
			t.Fatalf("alg %d: join Len = %d, want 3", alg, j.Len())
		}
		if !j.Attrs().Equal(u.All()) {
			t.Fatalf("alg %d: join attrs = %v", alg, j.Attrs())
		}
		want := New(u.All())
		for _, row := range [][]string{{"ed", "toys", "mo"}, {"flo", "toys", "mo"}, {"bob", "tools", "tim"}} {
			tp := make(Tuple, 3)
			tp[want.Col(mustID(u, "E"))] = syms.Const(row[0])
			tp[want.Col(mustID(u, "D"))] = syms.Const(row[1])
			tp[want.Col(mustID(u, "M"))] = syms.Const(row[2])
			want.Insert(tp)
		}
		if !j.Equal(want) {
			t.Fatalf("alg %d: join content wrong:\n%s", alg, j.Format(syms))
		}
	}
}

func TestJoinDangling(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	syms := value.NewSymbols()
	ab := mk(t, u, syms, "A B", []string{"1", "x"})
	bc := mk(t, u, syms, "B C", []string{"y", "p"})
	if j := ab.Join(bc); j.Len() != 0 {
		t.Errorf("dangling join Len = %d", j.Len())
	}
}

func TestJoinDisjointIsProduct(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	a := mk(t, u, syms, "A", []string{"1"}, []string{"2"})
	b := mk(t, u, syms, "B", []string{"x"}, []string{"y"}, []string{"z"})
	j := a.Join(b)
	if j.Len() != 6 {
		t.Errorf("product Len = %d", j.Len())
	}
	p := a.Product(b)
	if !p.Equal(j) {
		t.Error("Product != Join on disjoint attrs")
	}
}

func TestProductOverlapPanics(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	r := New(u.MustSet("A", "B"))
	s := New(u.MustSet("B"))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	r.Product(s)
}

func TestJoinAlgorithmsAgreeRandom(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C", "D")
	syms := value.NewSymbols()
	vals := syms.Ints(4)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := New(u.MustSet("A", "B", "C"))
		s := New(u.MustSet("B", "C", "D"))
		for i := 0; i < 12; i++ {
			r.Insert(Tuple{vals[rng.Intn(4)], vals[rng.Intn(4)], vals[rng.Intn(4)]})
			s.Insert(Tuple{vals[rng.Intn(4)], vals[rng.Intn(4)], vals[rng.Intn(4)]})
		}
		h := r.JoinWith(s, HashJoin)
		m := r.JoinWith(s, SortMergeJoin)
		if !h.Equal(m) {
			t.Fatalf("trial %d: hash and sort-merge disagree (%d vs %d tuples)", trial, h.Len(), m.Len())
		}
	}
}

func TestLosslessJoinDecomposition(t *testing.T) {
	// If R satisfies *[X, Y], then π_X(R) ⋈ π_Y(R) = R.
	u := attr.MustUniverse("E", "D", "M")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "E D M",
		[]string{"ed", "toys", "mo"},
		[]string{"flo", "toys", "mo"},
		[]string{"bob", "tools", "tim"},
	)
	x, y := u.MustSet("E", "D"), u.MustSet("D", "M")
	if !r.SatisfiesJD(dep.MustJD(x, y)) {
		t.Fatal("instance should satisfy *[ED, DM] (D -> M holds)")
	}
	if !r.Project(x).Join(r.Project(y)).Equal(r) {
		t.Error("lossless join failed")
	}
}

func TestLossyJoinDetected(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	syms := value.NewSymbols()
	// Classic lossy example: two tuples sharing B but differing elsewhere.
	r := mk(t, u, syms, "A B C",
		[]string{"1", "x", "p"},
		[]string{"2", "x", "q"},
	)
	j := dep.MustJD(u.MustSet("A", "B"), u.MustSet("B", "C"))
	if r.SatisfiesJD(j) {
		t.Error("lossy decomposition reported lossless")
	}
}

func TestSatisfiesFD(t *testing.T) {
	u := attr.MustUniverse("E", "D", "M")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "E D M",
		[]string{"ed", "toys", "mo"},
		[]string{"flo", "toys", "mo"},
	)
	if !r.SatisfiesFD(dep.NewFD(u.MustSet("E"), u.MustSet("D"))) {
		t.Error("E->D should hold")
	}
	if !r.SatisfiesFD(dep.NewFD(u.MustSet("D"), u.MustSet("M"))) {
		t.Error("D->M should hold")
	}
	r.InsertVals(syms.Const("ed"), syms.Const("tools"), syms.Const("tim"))
	if r.SatisfiesFD(dep.NewFD(u.MustSet("E"), u.MustSet("D"))) {
		t.Error("E->D should now fail")
	}
}

func TestSatisfiesFDOutsidePanics(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	r := New(u.MustSet("A"))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	r.SatisfiesFD(dep.NewFD(u.MustSet("A"), u.MustSet("B")))
}

func TestSatisfiesMVDAndAll(t *testing.T) {
	u := attr.MustUniverse("C", "T", "B")
	syms := value.NewSymbols()
	// Course ->> Teacher: teachers and books independent per course.
	r := mk(t, u, syms, "C T B",
		[]string{"db", "green", "ull"},
		[]string{"db", "green", "date"},
		[]string{"db", "brown", "ull"},
		[]string{"db", "brown", "date"},
	)
	m := dep.NewMVD(u.MustSet("C"), u.MustSet("T"))
	if !r.SatisfiesMVD(m) {
		t.Error("C->>T should hold")
	}
	r.InsertVals(syms.Const("db"), syms.Const("white"), syms.Const("ull"))
	if r.SatisfiesMVD(m) {
		t.Error("C->>T should fail after partial insert")
	}
	sigma := dep.NewSet(u)
	sigma.Add(m)
	ok, bad := r.SatisfiesAll(sigma)
	if ok || bad == nil {
		t.Error("SatisfiesAll missed the violation")
	}
}

func TestSatisfiesEFDAsFD(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A B", []string{"1", "x"}, []string{"1", "y"})
	e := dep.NewEFD(u.MustSet("A"), u.MustSet("B"))
	if r.Satisfies(e) {
		t.Error("EFD should be violated (underlying FD fails)")
	}
}

func TestEqual(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A B", []string{"1", "x"}, []string{"2", "y"})
	s := mk(t, u, syms, "A B", []string{"2", "y"}, []string{"1", "x"})
	if !r.Equal(s) {
		t.Error("order-insensitive equality failed")
	}
	s.InsertVals(syms.Const("3"), syms.Const("z"))
	if r.Equal(s) {
		t.Error("unequal relations reported equal")
	}
	p := mk(t, u, syms, "A", []string{"1"})
	if r.Equal(p) {
		t.Error("different schemas reported equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	u := attr.MustUniverse("A")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "A", []string{"1"})
	c := r.Clone()
	c.InsertVals(syms.Const("2"))
	if r.Len() != 1 {
		t.Error("Clone shares state")
	}
}

// TestCloneKeepsTupleCapacity: an outright clone of a flat relation
// keeps the source's spare capacity, so an Insert right after Clone
// does not grow (reallocate and copy) the clone's tuple slab.
func TestCloneKeepsTupleCapacity(t *testing.T) {
	u := attr.MustUniverse("A")
	syms := value.NewSymbols()
	r := New(u.All())
	for i := 0; i < 5; i++ {
		r.InsertVals(syms.Const(string(rune('a' + i))))
	}
	if cap(r.tuples.flat) <= r.Len() {
		t.Fatalf("fixture has no spare capacity: len %d cap %d", r.Len(), cap(r.tuples.flat))
	}
	c := r.Clone()
	slab := &c.tuples.flat[0]
	c.InsertVals(syms.Const("z"))
	if &c.tuples.flat[0] != slab {
		t.Errorf("Insert after Clone grew the tuple slab: len %d cap %d", c.Len(), cap(c.tuples.flat))
	}
	if r.Len() != 5 || c.Len() != 6 {
		t.Errorf("Clone shares state: source %d tuples, clone %d", r.Len(), c.Len())
	}
}

func TestSortedDeterministic(t *testing.T) {
	u := attr.MustUniverse("A", "B")
	syms := value.NewSymbols()
	// Intern in name order so Value order matches name order (Sorted orders
	// by interned Value, not by display name).
	for _, n := range []string{"1", "2", "x", "y"} {
		syms.Const(n)
	}
	r := mk(t, u, syms, "A B", []string{"2", "x"}, []string{"1", "y"}, []string{"1", "x"})
	rows := r.Sorted(u.MustSet("A"))
	if syms.Name(rows[0][0]) != "1" || syms.Name(rows[2][0]) != "2" {
		t.Errorf("sort order wrong")
	}
	// Ties broken by B.
	if syms.Name(rows[0][1]) != "x" {
		t.Errorf("tie-break wrong")
	}
}

func TestFormat(t *testing.T) {
	u := attr.MustUniverse("E", "D")
	syms := value.NewSymbols()
	r := mk(t, u, syms, "E D", []string{"ed", "toys"})
	out := r.Format(syms)
	if !strings.Contains(out, "E") || !strings.Contains(out, "toys") {
		t.Errorf("Format output missing content:\n%s", out)
	}
}

func TestTupleHelpers(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if !a.Equal(Tuple{1, 2, 3}) || a.Equal(Tuple{1, 2}) || a.Equal(Tuple{1, 2, 4}) {
		t.Error("Equal wrong")
	}
	if !a.Less(Tuple{1, 2, 4}) || a.Less(Tuple{1, 2, 3}) || !(Tuple{1, 2}).Less(a) {
		t.Error("Less wrong")
	}
}

func TestQuickProjectionIdempotent(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	syms := value.NewSymbols()
	vals := syms.Ints(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(u.All())
		for i := 0; i < 10; i++ {
			r.Insert(Tuple{vals[rng.Intn(3)], vals[rng.Intn(3)], vals[rng.Intn(3)]})
		}
		x := u.MustSet("A", "B")
		p := r.Project(x)
		return p.Project(x).Equal(p) && p.Len() <= r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinContainsOriginal(t *testing.T) {
	// R ⊆ π_X(R) ⋈ π_Y(R) whenever X ∪ Y = U.
	u := attr.MustUniverse("A", "B", "C")
	syms := value.NewSymbols()
	vals := syms.Ints(3)
	x, y := u.MustSet("A", "B"), u.MustSet("B", "C")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(u.All())
		for i := 0; i < 8; i++ {
			r.Insert(Tuple{vals[rng.Intn(3)], vals[rng.Intn(3)], vals[rng.Intn(3)]})
		}
		j := r.Project(x).Join(r.Project(y))
		for _, tp := range r.Tuples() {
			if !j.Contains(tp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
