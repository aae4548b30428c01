package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

func TestDecideReplaceCase1Translatable(t *testing.T) {
	p, v, syms := edmView(t)
	// Replace (ed, toys) by (ed, tools): moves ed between departments.
	// Case 1 (shared D differs); (flo,toys) keeps toys alive, tools
	// exists via bob.
	t1 := relation.Tuple{syms.Const("ed"), syms.Const("toys")}
	t2 := relation.Tuple{syms.Const("ed"), syms.Const("tools")}
	d, err := p.DecideReplace(v, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Translatable {
		t.Fatalf("decision = %+v, want translatable", d)
	}
}

func TestDecideReplaceCase1LastSharer(t *testing.T) {
	p, v, syms := edmView(t)
	// Replace (bob, tools) by (bob, toys): bob is the only tools
	// employee, the tools complement row would vanish.
	t1 := relation.Tuple{syms.Const("bob"), syms.Const("tools")}
	t2 := relation.Tuple{syms.Const("bob"), syms.Const("toys")}
	d, err := p.DecideReplace(v, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Translatable || d.Reason != ReasonNoSharedMatch {
		t.Fatalf("decision = %+v, want NoSharedMatch", d)
	}
}

func TestDecideReplaceCase2(t *testing.T) {
	// Case 2: shared value equal. Pair (ED, DM); replace (ed, toys) by
	// (ann, toys) — renames the employee within the same department.
	p, v, syms := edmView(t)
	t1 := relation.Tuple{syms.Const("ed"), syms.Const("toys")}
	t2 := relation.Tuple{syms.Const("ann"), syms.Const("toys")}
	d, err := p.DecideReplace(v, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Translatable {
		t.Fatalf("decision = %+v, want translatable (case 2)", d)
	}
}

func TestDecideReplaceChaseCounterexample(t *testing.T) {
	// Same A->C, B->C setup as the insertion counterexample, phrased as a
	// replacement.
	u := attr.MustUniverse("A", "B", "C")
	s := MustSchema(u, dep.MustParseSet(u, "A -> C\nB -> C"))
	p := MustPair(s, u.MustSet("A", "B"), u.MustSet("B", "C"))
	syms := value.NewSymbols()
	v := relation.New(u.MustSet("A", "B"))
	v.InsertVals(syms.Const("a1"), syms.Const("b1"))
	v.InsertVals(syms.Const("a2"), syms.Const("b2"))
	v.InsertVals(syms.Const("a3"), syms.Const("b1"))
	// Replace (a3, b1) by (a1, b2): inserting (a1, b2) forces a1's C to
	// b2's group in some legal database and breaks A -> C.
	t1 := relation.Tuple{syms.Const("a3"), syms.Const("b1")}
	t2 := relation.Tuple{syms.Const("a1"), syms.Const("b2")}
	d, err := p.DecideReplace(v, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Translatable || d.Reason != ReasonChaseCounterexample {
		t.Fatalf("decision = %+v, want ChaseCounterexample", d)
	}
}

func TestDecideReplaceValidation(t *testing.T) {
	p, v, syms := edmView(t)
	missing := relation.Tuple{syms.Const("zed"), syms.Const("toys")}
	present := relation.Tuple{syms.Const("ed"), syms.Const("toys")}
	if _, err := p.DecideReplace(v, missing, present); err == nil {
		t.Error("t1 missing accepted")
	}
	other := relation.Tuple{syms.Const("flo"), syms.Const("toys")}
	if _, err := p.DecideReplace(v, present, other); err == nil {
		t.Error("t2 already present accepted")
	}
	// t1 = t2 extends Theorem 9 as the identity (see DecideReplace).
	if d, err := p.DecideReplace(v, present, present); err != nil || d.Reason != ReasonIdentity {
		t.Errorf("self-replace = %+v, %v; want the identity", d, err)
	}
	if _, err := p.DecideReplace(v, present, relation.Tuple{syms.Const("x")}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestApplyReplaceEDM(t *testing.T) {
	p, _, _ := edmView(t)
	u := p.Schema().Universe()
	syms := value.NewSymbols()
	r := relation.New(u.All())
	for _, row := range [][]string{{"ed", "toys", "mo"}, {"flo", "toys", "mo"}, {"bob", "tools", "tim"}} {
		r.InsertVals(syms.Const(row[0]), syms.Const(row[1]), syms.Const(row[2]))
	}
	t1 := relation.Tuple{syms.Const("ed"), syms.Const("toys")}
	t2 := relation.Tuple{syms.Const("ed"), syms.Const("tools")}
	out, err := p.ApplyReplace(r, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Contains(relation.Tuple{syms.Const("ed"), syms.Const("tools"), syms.Const("tim")}) {
		t.Errorf("replacement row missing:\n%s", out.Format(syms))
	}
	if out.Contains(relation.Tuple{syms.Const("ed"), syms.Const("toys"), syms.Const("mo")}) {
		t.Error("replaced row still present")
	}
	if !out.Project(p.ComplementAttrs()).Equal(r.Project(p.ComplementAttrs())) {
		t.Error("complement changed")
	}
}

func TestApplyReplaceLastSharerErrors(t *testing.T) {
	p, _, _ := edmView(t)
	u := p.Schema().Universe()
	syms := value.NewSymbols()
	r := relation.New(u.All())
	r.InsertVals(syms.Const("bob"), syms.Const("tools"), syms.Const("tim"))
	r.InsertVals(syms.Const("flo"), syms.Const("toys"), syms.Const("mo"))
	t1 := relation.Tuple{syms.Const("bob"), syms.Const("tools")}
	t2 := relation.Tuple{syms.Const("bob"), syms.Const("toys")}
	if _, err := p.ApplyReplace(r, t1, t2); err == nil {
		t.Error("ApplyReplace dropped a complement row without error")
	}
}

// bruteReplaceTranslatable decides replacement translatability by
// definition: for every legal completion R of V (one row per view tuple,
// U−X cells over a domain simulating fresh nulls), the translation
// T_u[R] = R − t1*π_Y(R) ∪ t2*π_Y(R) must be legal, keep π_Y constant,
// and implement the view update.
func bruteReplaceTranslatable(p *Pair, v *relation.Relation, t1, t2 relation.Tuple, syms *value.Symbols) (translatable, anyLegal bool) {
	s := p.Schema()
	u := s.Universe()
	outX := u.All().Diff(p.ViewAttrs())
	outIDs := outX.IDs()
	cells := v.Len() * len(outIDs)
	domainSet := map[value.Value]bool{}
	for _, row := range v.Tuples() {
		for _, val := range row {
			domainSet[val] = true
		}
	}
	for _, val := range t2 {
		domainSet[val] = true
	}
	var domain []value.Value
	for val := range domainSet {
		domain = append(domain, val)
	}
	for i := 0; i < cells; i++ {
		domain = append(domain, syms.Const("fresh_rep_"+string(rune('a'+i))))
	}
	d := len(domain)
	assign := make([]int, cells)
	translatable = true
	for {
		r := relation.New(u.All())
		k := 0
		for _, row := range v.Tuples() {
			nt := make(relation.Tuple, u.Size())
			for c := 0; c < u.Size(); c++ {
				if vc := v.Col(attr.ID(c)); vc >= 0 {
					nt[c] = row[vc]
				} else {
					nt[c] = domain[assign[k]]
					k++
				}
			}
			r.Insert(nt)
		}
		if legal, _ := s.Legal(r); legal && r.Project(p.ViewAttrs()).Equal(v) {
			anyLegal = true
			vy := r.Project(p.ComplementAttrs())
			doomed := relation.Singleton(p.ViewAttrs(), t1).Join(vy)
			added := relation.Singleton(p.ViewAttrs(), t2).Join(vy)
			tu := r.Clone()
			for _, dt := range doomed.Tuples() {
				tu.Delete(dt)
			}
			for _, nt := range added.Tuples() {
				tu.Insert(nt.Clone())
			}
			want := v.Clone()
			want.Delete(t1)
			want.Insert(t2.Clone())
			if added.Len() == 0 {
				translatable = false
			} else if legal2, _ := s.Legal(tu); !legal2 {
				translatable = false
			} else if !tu.Project(p.ComplementAttrs()).Equal(vy) {
				translatable = false
			} else if !tu.Project(p.ViewAttrs()).Equal(want) {
				translatable = false
			}
			if !translatable {
				return false, true
			}
		}
		i := 0
		for i < cells {
			assign[i]++
			if assign[i] < d {
				break
			}
			assign[i] = 0
			i++
		}
		if i == cells {
			break
		}
	}
	return translatable, anyLegal
}

// TestQuickDecideReplaceMatchesBruteForce: E14 validation — the Theorem 9
// conditions agree with the brute-force definition on random small cases.
func TestQuickDecideReplaceMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, v, t2, syms, ok := randomInsertCase(rng)
		if !ok || v.Len() == 0 {
			return true
		}
		t1 := v.Tuple(rng.Intn(v.Len())).Clone()
		d, err := p.DecideReplace(v, t1, t2)
		if err != nil {
			return true // invalid shapes (t2 present etc.) are rejected upstream
		}
		brute, anyLegal := bruteReplaceTranslatable(p, v, t1, t2, syms)
		if !anyLegal {
			return !d.Translatable
		}
		return d.Translatable == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickReplaceConsistentWithDeleteInsert: when both the deletion of t1
// and the insertion of t2 are translatable and the replacement is too, the
// replacement equals delete-then-insert on the database (their composite
// is the same update when the pivot groups differ).
func TestQuickReplaceConsistentWithDeleteInsert(t *testing.T) {
	p, _, syms := edmView(t)
	u := p.Schema().Universe()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := relation.New(u.All())
		n := 3 + rng.Intn(3)
		for i := 0; i < n; i++ {
			d := rng.Intn(2)
			dept, mgr := "toys", "mo"
			if d == 1 {
				dept, mgr = "tools", "tim"
			}
			r.InsertVals(syms.Const("w"+string(rune('a'+i))), syms.Const(dept), syms.Const(mgr))
		}
		v := r.Project(p.ViewAttrs())
		if v.Len() < 2 {
			return true
		}
		t1 := v.Tuple(rng.Intn(v.Len())).Clone()
		t2 := relation.Tuple{syms.Const("replacement"), t1[1]}
		if v.Contains(t2) {
			return true
		}
		dr, err := p.DecideReplace(v, t1, t2)
		if err != nil || !dr.Translatable {
			return true
		}
		viaReplace, err := p.ApplyReplace(r, t1, t2)
		if err != nil {
			return false
		}
		mid, err := p.ApplyDelete(r, t1)
		if err != nil {
			return true // delete alone may be untranslatable (last sharer)
		}
		viaTwo, err := p.ApplyInsert(mid, t2)
		if err != nil {
			return true
		}
		return viaReplace.Equal(viaTwo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
