package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// edmDatabase builds the standard 3-tuple EDM database.
func edmDatabase(t testing.TB) (*Pair, *relation.Relation, *value.Symbols) {
	t.Helper()
	s := edmSchema(t)
	u := s.Universe()
	p := MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	r := relation.New(u.All())
	for _, row := range [][]string{{"ed", "toys", "mo"}, {"flo", "toys", "mo"}, {"bob", "tools", "tim"}} {
		r.InsertVals(syms.Const(row[0]), syms.Const(row[1]), syms.Const(row[2]))
	}
	return p, r, syms
}

func TestSessionBasics(t *testing.T) {
	p, r, syms := edmDatabase(t)
	sess, err := NewSession(p, r)
	if err != nil {
		t.Fatal(err)
	}
	ops := []UpdateOp{
		Insert(relation.Tuple{syms.Const("ann"), syms.Const("toys")}),
		Delete(relation.Tuple{syms.Const("ed"), syms.Const("toys")}),
		Replace(relation.Tuple{syms.Const("ann"), syms.Const("toys")},
			relation.Tuple{syms.Const("ann"), syms.Const("tools")}),
	}
	n := 0
	for _, op := range ops {
		if _, err := sess.Apply(op); err != nil {
			t.Fatalf("applied %d: %v", n, err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("applied %d ops", n)
	}
	if v := sess.ViewVersion(); v != 3 {
		t.Errorf("view version %d after 3 applied ops", v)
	}
	// Complement never changed.
	if !sess.Database().Project(p.ComplementAttrs()).Equal(r.Project(p.ComplementAttrs())) {
		t.Error("complement changed across the session")
	}
	// Final view content.
	v := sess.View()
	if !v.Contains(relation.Tuple{syms.Const("ann"), syms.Const("tools")}) {
		t.Error("replace lost")
	}
	if v.Contains(relation.Tuple{syms.Const("ed"), syms.Const("toys")}) {
		t.Error("delete lost")
	}
}

func TestSessionRejection(t *testing.T) {
	p, r, syms := edmDatabase(t)
	sess, err := NewSession(p, r)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Database()
	d, err := sess.Apply(Insert(relation.Tuple{syms.Const("zoe"), syms.Const("plants")}))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if d == nil || d.Translatable {
		t.Errorf("rejected update returned decision %+v, want untranslatable", d)
	}
	if !sess.Database().Equal(before) {
		t.Error("rejected update changed the database")
	}
	if v := sess.ViewVersion(); v != 0 {
		t.Errorf("rejected update moved the view version to %d", v)
	}
}

func TestSessionIllegalInitial(t *testing.T) {
	p, _, syms := edmDatabase(t)
	bad := relation.New(p.Schema().Universe().All())
	bad.InsertVals(syms.Const("e"), syms.Const("d"), syms.Const("m1"))
	bad.InsertVals(syms.Const("e"), syms.Const("d2"), syms.Const("m2"))
	if _, err := NewSession(p, bad); err == nil {
		t.Error("illegal initial database accepted")
	}
}

func TestSessionDecideDoesNotMutate(t *testing.T) {
	p, r, syms := edmDatabase(t)
	sess, _ := NewSession(p, r)
	before := sess.Database()
	if _, err := sess.Decide(Insert(relation.Tuple{syms.Const("ann"), syms.Const("toys")})); err != nil {
		t.Fatal(err)
	}
	if !sess.Database().Equal(before) || sess.ViewVersion() != 0 {
		t.Error("Decide mutated session state")
	}
}

// TestQuickSessionMorphism: applying updates one by one equals applying
// them in any decomposition — the operational face of BS fact (ii).
func TestQuickSessionMorphism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, r, syms := edmDatabase(t)
		var ops []UpdateOp
		names := []string{"w1", "w2", "w3", "w4"}
		depts := []string{"toys", "tools"}
		for i := 0; i < 4; i++ {
			name := names[rng.Intn(len(names))]
			dept := depts[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				ops = append(ops, Insert(relation.Tuple{syms.Const(name), syms.Const(dept)}))
			} else {
				ops = append(ops, Delete(relation.Tuple{syms.Const(name), syms.Const(dept)}))
			}
		}
		// Path 1: one session start-to-finish.
		s1, err := NewSession(p, r)
		if err != nil {
			return false
		}
		stop := len(ops)
		for i, op := range ops {
			if _, err := s1.Apply(op); err != nil {
				if errors.Is(err, ErrRejected) {
					stop = i
					break
				}
				return false
			}
		}
		// Path 2: split into two sessions at an arbitrary point before the
		// first rejection.
		if stop == 0 {
			return true
		}
		cut := rng.Intn(stop) + 1
		s2a, err := NewSession(p, r)
		if err != nil {
			return false
		}
		for _, op := range ops[:cut] {
			if _, err := s2a.Apply(op); err != nil {
				return false
			}
		}
		s2b, err := NewSession(p, s2a.Database())
		if err != nil {
			return false
		}
		for _, op := range ops[cut:stop] {
			if _, err := s2b.Apply(op); err != nil {
				return false
			}
		}
		return s1.Database().Equal(s2b.Database())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestUpdateKindString(t *testing.T) {
	if UpdateInsert.String() != "insert" || UpdateDelete.String() != "delete" || UpdateReplace.String() != "replace" {
		t.Error("kind strings wrong")
	}
	if UpdateKind(7).String() != "UpdateKind(7)" {
		t.Error("fallback wrong")
	}
}

func TestSessionUnknownKind(t *testing.T) {
	p, r, _ := edmDatabase(t)
	sess, _ := NewSession(p, r)
	if _, err := sess.Decide(UpdateOp{Kind: UpdateKind(9)}); err == nil {
		t.Error("unknown kind accepted")
	}
}
