package constcomp

// Serial-equivalence tests for the delta-driven incremental path
// (internal/core/incremental.go): randomized mixed op streams are run
// through a session with incremental maintenance on and one with it
// off, asserting identical decide outcomes (verdict, reason, witness)
// and identical final instances — including after forced invalidations
// mid-stream and through the serving pipeline with a write landing on
// the store between batches.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// incOutcome is the externally observable fate of one op.
type incOutcome struct {
	applied      bool
	translatable bool
	reason       string
	witnessFD    string
	witnessRow   string
	errText      string
}

func incOutcomeOf(d *core.Decision, err error) incOutcome {
	var o incOutcome
	switch {
	case err == nil:
		o.applied = true
	case errors.Is(err, core.ErrRejected):
		o.errText = "rejected"
	default:
		o.errText = err.Error()
	}
	if d != nil {
		o.translatable = d.Translatable
		o.reason = d.Reason.String()
		o.witnessFD = d.WitnessFD.String()
		if d.WitnessRow != nil {
			o.witnessRow = fmt.Sprint([]value.Value(d.WitnessRow))
		}
	}
	return o
}

// runEquivalence drives the same op stream through an incremental and a
// full-path session over identical initial state, comparing every
// outcome and the final instances. invalidateAt ops additionally force
// InvalidateDeltas (and one SetIncremental off/on round-trip) on the
// incremental session first, proving a rebuilt state picks up exactly
// where the dropped one left off.
func runEquivalence(t *testing.T, pair *core.Pair, db *relation.Relation, ops []core.UpdateOp, invalidateAt map[int]bool) {
	t.Helper()
	inc, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	full.SetIncremental(false)
	for i, op := range ops {
		if invalidateAt[i] {
			inc.InvalidateDeltas()
			if i%2 == 0 {
				// Round-trip the switch too: must behave identically.
				inc.SetIncremental(false)
				inc.SetIncremental(true)
			}
		}
		di, erri := inc.Apply(op)
		df, errf := full.Apply(op)
		oi, of := incOutcomeOf(di, erri), incOutcomeOf(df, errf)
		if oi != of {
			t.Fatalf("op %d (%v): incremental %+v, full %+v", i, op.Kind, oi, of)
		}
		// ChaseCalls is the one intentionally path-dependent field;
		// everything else of the Decision must agree (checked above via
		// reason/witness/verdict).
	}
	if !inc.Database().Equal(full.Database()) {
		t.Fatal("final databases diverged")
	}
	if !inc.View().Equal(full.View()) {
		t.Fatal("final views diverged")
	}
	if inc.ViewVersion() != full.ViewVersion() {
		t.Fatalf("versions diverged: inc %d, full %d", inc.ViewVersion(), full.ViewVersion())
	}
}

// TestIncrementalEquivalenceEDM: 1200 mixed ops on the paper's §2
// Employee–Department–Manager schema, with forced invalidations.
func TestIncrementalEquivalenceEDM(t *testing.T) {
	reg := obs.NewRegistry()
	core.SetMetrics(reg)
	defer core.SetMetrics(nil)

	e := workload.NewEDM()
	pair := core.MustPair(e.Schema, e.ED, e.DM)
	db := e.Instance(64, 8)
	rng := rand.New(rand.NewSource(42))
	const nOps = 1200
	ops := make([]core.UpdateOp, 0, nOps)
	emp := func() string { return fmt.Sprintf("w%03d", rng.Intn(80)) }
	dep := func(n int) int { return rng.Intn(n) }
	for len(ops) < nOps {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			ops = append(ops, core.Insert(e.NewEmployeeTuple(emp(), dep(8))))
		case 4, 5, 6:
			ops = append(ops, core.Delete(e.NewEmployeeTuple(emp(), dep(8))))
		case 7:
			ops = append(ops, core.Replace(
				e.NewEmployeeTuple(emp(), dep(8)), e.NewEmployeeTuple(emp(), dep(8))))
		case 8:
			// Department that does not exist: condition (a) rejection.
			ops = append(ops, core.Insert(e.NewEmployeeTuple(emp(), 8+dep(3))))
		default:
			// Same employee, other department: trips E→D on candidates.
			w := emp()
			ops = append(ops, core.Insert(e.NewEmployeeTuple(w, dep(4))),
				core.Insert(e.NewEmployeeTuple(w, 4+dep(4))))
		}
	}
	ops = ops[:nOps]
	invalidate := map[int]bool{100: true, 500: true, 501: true, 900: true}
	runEquivalence(t, pair, db, ops, invalidate)

	snap := reg.Snapshot()
	if snap.Counters["core_inc_decide_total"] == 0 || snap.Counters["core_inc_apply_total"] == 0 {
		t.Errorf("incremental path never engaged: %v decides, %v applies",
			snap.Counters["core_inc_decide_total"], snap.Counters["core_inc_apply_total"])
	}
	if snap.Counters["core_inc_rebuild_total"] < 2 {
		t.Errorf("forced invalidations did not trigger rebuilds (got %v)",
			snap.Counters["core_inc_rebuild_total"])
	}
}

// TestIncrementalEquivalenceChainSchema: a 4-attribute FD chain
// A→B→C→D with view ABC under complement CD. The B→C and A→B
// candidate loops are chase-heavy (Z ⊄ X∩Y), C→D is skippable —
// together they cover every branch of the incremental candidate loop
// on dense random ops over small domains.
func TestIncrementalEquivalenceChainSchema(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C", "D")
	sigma := dep.MustParseSet(u, "A -> B\nB -> C\nC -> D")
	s := core.MustSchema(u, sigma)
	pair := core.MustPair(s, u.MustSet("A", "B", "C"), u.MustSet("C", "D"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < 48; i++ {
		b := i % 12
		c := b % 5
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("a%d", i)),
			syms.Const(fmt.Sprintf("b%d", b)),
			syms.Const(fmt.Sprintf("c%d", c)),
			syms.Const(fmt.Sprintf("d%d", c)),
		})
	}
	rng := rand.New(rand.NewSource(7))
	vt := func() relation.Tuple {
		return relation.Tuple{
			syms.Const(fmt.Sprintf("a%d", rng.Intn(64))),
			syms.Const(fmt.Sprintf("b%d", rng.Intn(14))),
			syms.Const(fmt.Sprintf("c%d", rng.Intn(6))),
		}
	}
	const nOps = 1000
	ops := make([]core.UpdateOp, nOps)
	for i := range ops {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			ops[i] = core.Insert(vt())
		case 5, 6, 7:
			ops[i] = core.Delete(vt())
		default:
			ops[i] = core.Replace(vt(), vt())
		}
	}
	runEquivalence(t, pair, db, ops, map[int]bool{250: true, 750: true})
}

// TestIncrementalEquivalencePipelineResync: the serving pipeline runs
// with incremental maintenance on; a write applied to the store
// directly, between batches, goes through the same session the
// committer decides with, so the maintained delta state must absorb it.
// The pipeline's answers must match a full-path serial session
// replaying the identical stream.
func TestIncrementalEquivalencePipelineResync(t *testing.T) {
	e := workload.NewEDM()
	pair := core.MustPair(e.Schema, e.ED, e.DM)
	db := e.Instance(16, 4)

	st, err := store.Create(store.NewMemFS(), pair, db, e.Syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !st.IncrementalEnabled() {
		t.Fatal("store session should default to incremental maintenance")
	}
	pipe, err := serve.New(st, serve.Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}

	full, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	full.SetIncremental(false)

	apply := func(op core.UpdateOp) {
		t.Helper()
		dp, errp := pipe.Apply(op)
		df, errf := full.Apply(op)
		if op, fp := incOutcomeOf(dp, errp), incOutcomeOf(df, errf); op != fp {
			t.Fatalf("pipeline %+v, full %+v", op, fp)
		}
	}

	for i := 0; i < 12; i++ {
		apply(core.Insert(e.NewEmployeeTuple(fmt.Sprintf("pre%d", i), i%4)))
	}
	// Behind the pipeline's back: emp0 leaves dept0, so the next insert
	// is translatable only against the store's current state.
	behind := core.Delete(e.NewEmployeeTuple("emp0", 0))
	if _, err := st.Apply(behind); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Apply(behind); err != nil {
		t.Fatal(err)
	}
	apply(core.Insert(e.NewEmployeeTuple("emp0", 1)))
	// Mixed stream after the write: per-op and final-state equality
	// prove the maintained incremental state stayed consistent.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		w := fmt.Sprintf("post%d", rng.Intn(32))
		switch rng.Intn(3) {
		case 0:
			apply(core.Insert(e.NewEmployeeTuple(w, rng.Intn(4))))
		case 1:
			apply(core.Delete(e.NewEmployeeTuple(w, rng.Intn(4))))
		default:
			apply(core.Replace(e.NewEmployeeTuple(w, rng.Intn(4)), e.NewEmployeeTuple(w, rng.Intn(4))))
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if !st.Database().Equal(full.Database()) {
		t.Fatal("pipeline and full-path databases diverged")
	}
}
