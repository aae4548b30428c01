package constcomp

import (
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/workload"
)

// TestSelfReplaceIsIdentity: replacing a view tuple by itself, which
// Theorem 9 leaves undefined (it assumes t2 ∉ V), is the identity
// update on both decide paths — translatable with ReasonIdentity and
// the database unchanged — and the delta path answers it without
// falling back. A self-replace of an absent tuple keeps the full path's
// domain error. Both paths then agree byte for byte over a stream that
// mixes self-replaces into inserts and deletes.
func TestSelfReplaceIsIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	core.SetMetrics(reg)
	defer core.SetMetrics(nil)

	e := workload.NewEDM()
	pair := core.MustPair(e.Schema, e.ED, e.DM)
	db := e.Instance(16, 4)
	present := db.Project(pair.ViewAttrs()).Tuples()[0]
	absent := e.NewEmployeeTuple("nobody", 0)
	for _, inc := range []bool{true, false} {
		s, err := core.NewSession(pair, db)
		if err != nil {
			t.Fatal(err)
		}
		s.SetIncremental(inc)
		d, err := s.Apply(core.Replace(present, present))
		if err != nil || !d.Translatable || d.Reason != core.ReasonIdentity {
			t.Fatalf("inc=%v: self-replace of a view tuple: %+v, %v; want the identity", inc, d, err)
		}
		if !s.Database().Equal(db) {
			t.Fatalf("inc=%v: self-replace changed the database", inc)
		}
		if _, err := s.Apply(core.Replace(absent, absent)); err == nil {
			t.Fatalf("inc=%v: self-replace of an absent tuple succeeded", inc)
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counters["core_inc_fallback_total"]; n != 1 {
		t.Errorf("%v incremental fallbacks, want 1 (the absent tuple's domain error)", n)
	}

	added := e.NewEmployeeTuple("newcomer", 1)
	runEquivalence(t, pair, db, []core.UpdateOp{
		core.Replace(present, present),
		core.Replace(absent, absent),
		core.Insert(added),
		core.Replace(added, added),
		core.Replace(present, added),
		core.Delete(added),
		core.Replace(added, added),
	}, nil)
}
