package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// chain20 builds the 20-attribute chained-FD schema A00→A01→…→A19 with
// the view X covering the first half — large enough that the Theorem 2
// exact search (≈ Σ_k C(20,k) complementarity chases before reaching
// |Y| = 10) cannot finish on a small budget.
func chain20() (*Schema, attr.Set) {
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("A%02d", i)
	}
	u := attr.MustUniverse(names...)
	sigma := dep.NewSet(u)
	for i := 0; i+1 < 20; i++ {
		sigma.Add(dep.NewFD(u.MustSet(names[i]), u.MustSet(names[i+1])))
	}
	x := u.Empty()
	for i := 0; i < 10; i++ {
		x = x.With(attr.ID(i))
	}
	return MustSchema(u, sigma), x
}

func TestRecommendBudgetDegradesToMinimal(t *testing.T) {
	s, x := chain20()
	m := NewManager(s)
	m.SetExactSearchLimit(20)
	// Enough steps for the Corollary-2 minimal complement (≈ |U| chases)
	// and its minimality refinement, far too few for the exact search.
	b := budget.WithSteps(context.Background(), 200)
	recs := m.RecommendBudget(b, x)
	if len(recs) == 0 {
		t.Fatal("degraded Recommend returned no candidates")
	}
	for _, r := range recs {
		if !r.Degraded {
			t.Errorf("recommendation %v not flagged Degraded", r.Y)
		}
		if !Complementary(s, x, r.Y) {
			t.Errorf("degraded recommendation %v is not a complement", r.Y)
		}
		if r.Minimum {
			t.Errorf("degraded recommendation %v claims Minimum without the exact search", r.Y)
		}
	}
	if want := MinimalComplement(s, x); !recs[0].Y.Equal(want) {
		t.Errorf("degraded fallback = %v, want Corollary-2 minimal complement %v", recs[0].Y, want)
	}
}

func TestRecommendCtxTimeoutReturnsInsteadOfHanging(t *testing.T) {
	s, x := chain20()
	m := NewManager(s)
	m.SetExactSearchLimit(20) // force the exponential search path
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	done := make(chan []Recommendation, 1)
	go func() { done <- m.RecommendCtx(ctx, x) }()
	// Watchdog via a context deadline, the repo's sanctioned timeout
	// mechanism, rather than a raw time.After timer.
	wd, wdCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wdCancel()
	select {
	case recs := <-done:
		if len(recs) == 0 {
			t.Fatal("timed-out Recommend returned no candidates")
		}
		if !Complementary(s, x, recs[0].Y) {
			t.Errorf("fallback %v is not a complement", recs[0].Y)
		}
	case <-wd.Done():
		t.Fatal("RecommendCtx hung past its 1ms budget")
	}
}

func TestMinimumComplementCtxCancelled(t *testing.T) {
	s, x := chain20()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := MinimumComplementCtx(ctx, s, x)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// edmSession builds the paper's §2 Employee–Department–Manager session.
func edmSession(t *testing.T) (*Session, *Pair, *value.Symbols) {
	t.Helper()
	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := MustSchema(u, sigma)
	pair := MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < 4; i++ {
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", i%2)),
			syms.Const(fmt.Sprintf("mgr%d", i%2)),
		})
	}
	sess, err := NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	return sess, pair, syms
}

func TestSessionApplyCtxCancelledLeavesStateUntouched(t *testing.T) {
	sess, _, syms := edmSession(t)
	before := sess.Database()
	version := sess.ViewVersion()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := Insert(relation.Tuple{syms.Const("newbie"), syms.Const("dept0")})
	_, err := sess.ApplyCtx(ctx, op)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if !sess.Database().Equal(before) {
		t.Error("cancelled ApplyCtx mutated the database")
	}
	if sess.ViewVersion() != version {
		t.Error("cancelled ApplyCtx moved the view version")
	}
	// The same op succeeds once the pressure is off.
	if _, err := sess.Apply(op); err != nil {
		t.Fatalf("apply after cancellation failed: %v", err)
	}
}

func TestDecideCtxCancelledAllKinds(t *testing.T) {
	sess, _, syms := edmSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []UpdateOp{
		Insert(relation.Tuple{syms.Const("newbie"), syms.Const("dept0")}),
		Delete(relation.Tuple{syms.Const("emp0"), syms.Const("dept0")}),
		Replace(
			relation.Tuple{syms.Const("emp0"), syms.Const("dept0")},
			relation.Tuple{syms.Const("emp0"), syms.Const("dept1")},
		),
	}
	for _, op := range ops {
		if _, err := sess.DecideCtx(ctx, op); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%v: want ErrBudgetExceeded, got %v", op.Kind, err)
		}
	}
}

func TestFindInsertComplementCtxCancelled(t *testing.T) {
	sess, pair, syms := edmSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := sess.View()
	tup := relation.Tuple{syms.Const("newbie"), syms.Const("dept0")}
	_, err := FindInsertComplementCtx(ctx, pair.Schema(), pair.ViewAttrs(), v, tup, TestExact)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestNonComplementaryWitnessCtxCancelled(t *testing.T) {
	u := attr.MustUniverse("A", "B", "C")
	s := MustSchema(u, dep.NewSet(u))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NonComplementaryWitnessCtx(ctx, s, u.MustSet("A", "B"), u.MustSet("B"), value.NewSymbols())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}
