package store

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
)

func TestClassifySentinels(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassUnknown},
		{"data loss", ErrDataLoss, ClassPermanent},
		{"no snapshot", ErrNoSnapshot, ClassPermanent},
		{"corrupt", ErrCorrupt, ClassPermanent},
		{"invariant", ErrInvariant, ClassPermanent},
		{"rejected", core.ErrRejected, ClassPermanent},
		{"injected", ErrInjected, ClassTransient},
		{"torn", ErrTorn, ClassTransient},
		{"budget", core.ErrBudgetExceeded, ClassTransient},
		{"deadline", context.DeadlineExceeded, ClassTransient},
		{"canceled", context.Canceled, ClassTransient},
		{"broken, no cause", ErrSessionBroken, ClassTransient},
		{"unknown", errors.New("what is this"), ClassUnknown},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A broken-session wrap must not launder its cause: broken-because-of-
// data-loss is permanent, broken-because-of-fsync-fault is transient.
func TestClassifyBrokenWrapKeepsCause(t *testing.T) {
	transient := fmt.Errorf("%w: %w", ErrSessionBroken, ErrInjected)
	if got := Classify(transient); got != ClassTransient {
		t.Fatalf("broken(injected) = %v, want transient", got)
	}
	perm := fmt.Errorf("%w: %w", ErrSessionBroken, ErrDataLoss)
	if got := Classify(perm); got != ClassPermanent {
		t.Fatalf("broken(data loss) = %v, want permanent", got)
	}
	// Double wrap, as produced by serve wrapping store's own wrap.
	double := fmt.Errorf("%w: %w", ErrSessionBroken, perm)
	if got := Classify(double); got != ClassPermanent {
		t.Fatalf("broken(broken(data loss)) = %v, want permanent", got)
	}
}

// TestRetryable: only a provably transient classification is worth
// retrying.
func TestRetryable(t *testing.T) {
	retryable := func(err error) bool { return Classify(err) == ClassTransient }
	if !retryable(ErrInjected) {
		t.Fatal("injected fault must be retryable")
	}
	if retryable(ErrDataLoss) || retryable(errors.New("mystery")) || retryable(nil) {
		t.Fatal("permanent/unknown/nil must not be retryable")
	}
}

func TestClassString(t *testing.T) {
	if ClassTransient.String() != "transient" ||
		ClassPermanent.String() != "permanent" ||
		ClassUnknown.String() != "unknown" {
		t.Fatal("Class.String mismatch")
	}
}

// The ApplyCtx broken-session wrap must expose the original cause so
// the self-healing layer can classify it.
func TestApplyCtxWrapPreservesCause(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{Match: journalOnly, FailSyncAt: 1})
	pair, db, syms := edmFixture()
	st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	_, err = st.Apply(ops[0])
	if err == nil {
		t.Fatal("expected broken session")
	}
	if !errors.Is(err, ErrSessionBroken) || !errors.Is(err, ErrInjected) {
		t.Fatalf("wrap lost chain: %v", err)
	}
	if Classify(err) != ClassTransient {
		t.Fatalf("fsync-fault breakage must classify transient: %v", err)
	}
	if st.Broken() == nil || !errors.Is(st.Broken(), ErrInjected) {
		t.Fatalf("Broken() must return the cause, got %v", st.Broken())
	}
	if _, err2 := st.Apply(ops[1]); !errors.Is(err2, ErrInjected) {
		t.Fatalf("sticky broken wrap lost chain: %v", err2)
	}
}
