package constcomp

// End-to-end integration tests spanning the whole stack: workload
// generation → manager-recommended complements → long update sessions →
// invariant verification, plus a full Theorem 1 ↔ Theorem 3 consistency
// sweep. These complement the per-package unit and property tests.

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/workload"
)

// TestIntegrationLongSession drives a few hundred mixed updates against a
// mid-sized EDM database and verifies after every step that the session
// maintained legality and complement constancy (the Session checks them
// internally and errors otherwise), then replays the accepted log on a
// fresh session and checks it reaches the same state (determinism +
// morphism).
func TestIntegrationLongSession(t *testing.T) {
	e := workload.NewEDM()
	mgr := core.NewManager(e.Schema)
	pair, err := mgr.RegisterRecommended(e.ED)
	if err != nil {
		t.Fatal(err)
	}
	db := e.Instance(200, 10)
	sess, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	names := make([]string, 40)
	for i := range names {
		names[i] = "w" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	var applied []core.UpdateOp
	for i := 0; i < 300; i++ {
		name := names[rng.Intn(len(names))]
		dept := rng.Intn(10)
		var op core.UpdateOp
		switch rng.Intn(3) {
		case 0:
			op = core.Insert(e.NewEmployeeTuple(name, dept))
		case 1:
			op = core.Delete(e.NewEmployeeTuple(name, dept))
		default:
			op = core.Replace(e.NewEmployeeTuple(name, dept), e.NewEmployeeTuple(name, (dept+1)%10))
		}
		_, err := sess.Apply(op)
		switch {
		case err == nil:
			applied = append(applied, op)
		case errors.Is(err, core.ErrRejected):
			// fine: untranslatable (e.g. replace of a missing tuple is an
			// error, not a rejection — both tolerated below)
		default:
			// Replacement preconditions (t1 missing / t2 present) surface
			// as plain errors; anything else is a real failure.
			if op.Kind != core.UpdateReplace {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if len(applied) < 50 {
		t.Fatalf("only %d/300 updates applied; workload too degenerate", len(applied))
	}
	// Replay the accepted operations on a fresh session.
	replay, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range applied {
		if _, err := replay.Apply(op); err != nil {
			t.Fatalf("replay rejected an accepted op: %v", err)
		}
	}
	if !replay.Database().Equal(sess.Database()) {
		t.Fatal("replay diverged from the original session")
	}
	// Final invariants, re-checked externally.
	final := sess.Database()
	if ok, bad := e.Schema.Legal(final); !ok {
		t.Fatalf("final database violates %v", bad)
	}
	if !final.Project(e.DM).Equal(db.Project(e.DM)) {
		t.Fatal("complement drifted across the session")
	}
}

// TestIntegrationComplementsAndTranslation sweeps every (X, Y) pair over a
// small schema: whenever NewPair accepts the pair, the three decision
// procedures must run without error on a generated instance and agree
// with each other per their contracts (Test 1 accept ⇒ exact accept; good
// Test 2 ≡ exact).
func TestIntegrationComplementsAndTranslation(t *testing.T) {
	e := workload.NewEDM()
	u := e.Schema.Universe()
	db := e.Instance(24, 4)
	tup := e.NewEmployeeTuple("probe", 1)
	pairs := 0
	u.All().Subsets(func(x attr.Set) bool {
		u.All().Subsets(func(y attr.Set) bool {
			pair, err := core.NewPair(e.Schema, x, y)
			if err != nil {
				return true
			}
			if !x.Equal(e.ED) {
				return true // the probe tuple is over ED
			}
			pairs++
			v := db.Project(x)
			d, err := pair.DecideInsert(v, tup)
			if err != nil {
				t.Fatalf("exact on (%v,%v): %v", x, y, err)
			}
			d1, err := pair.DecideInsertTest1(v, tup)
			if err != nil {
				t.Fatalf("test1 on (%v,%v): %v", x, y, err)
			}
			if d1.Translatable && !d.Translatable {
				t.Fatalf("Test 1 unsound on (%v,%v)", x, y)
			}
			good, err := pair.IsGoodComplement()
			if err != nil {
				t.Fatal(err)
			}
			d2, err := pair.DecideInsertTest2Known(v, tup, good)
			if err != nil {
				t.Fatal(err)
			}
			if good && d2.Translatable != d.Translatable {
				t.Fatalf("Test 2 ≠ exact on good complement (%v,%v)", x, y)
			}
			if d.Translatable {
				if _, err := pair.ApplyInsert(db, tup); err != nil {
					t.Fatalf("translatable but ApplyInsert failed on (%v,%v): %v", x, y, err)
				}
			}
			return true
		})
		return true
	})
	if pairs < 2 {
		t.Fatalf("swept only %d complementary pairs", pairs)
	}
}
