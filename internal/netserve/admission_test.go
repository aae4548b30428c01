package netserve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/obs"
)

// stillBlocked fails the test if a result arrives on errc within a
// short grace period: the Acquire behind it must be parked.
func stillBlocked(t *testing.T, errc <-chan error, what string) {
	t.Helper()
	select {
	case err := <-errc:
		t.Fatalf("%s returned (%v) while every slot was held", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestAdmissionSlotBound: with one slot, a second Acquire parks until
// the first holder releases, then gets the slot.
func TestAdmissionSlotBound(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Slots: 1})
	defer a.Close()
	first, err := a.Acquire(context.Background(), "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	second := make(chan func(), 1)
	go func() {
		release, err := a.Acquire(context.Background(), "y", 1)
		second <- release
		errc <- err
	}()
	stillBlocked(t, errc, "second Acquire")
	first()
	if err := <-errc; err != nil {
		t.Fatalf("second Acquire after release: %v", err)
	}
	(<-second)()
}

// TestAdmissionTokenBucket: a rate-limited tenant is throttled once its
// burst is spent, with a retry hint, and refills with the clock.
func TestAdmissionTokenBucket(t *testing.T) {
	clk := obs.NewManualClock()
	a := NewAdmission(AdmissionOptions{
		Slots: 16,
		Clock: clk,
		Rate:  10,
		Burst: 2,
	})
	defer a.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		release, err := a.Acquire(ctx, "metered", 1)
		if err != nil {
			t.Fatalf("burst acquire %d: %v", i, err)
		}
		release()
	}
	_, err := a.Acquire(ctx, "metered", 1)
	var te *ThrottleError
	if !errors.As(err, &te) {
		t.Fatalf("acquire past burst: err = %v, want ThrottleError", err)
	}
	if te.Tenant != "metered" || te.RetryAfterNS <= 0 {
		t.Fatalf("throttle hint = %+v", te)
	}
	// 10 ops/s: 100ms refills one token.
	clk.Advance(100 * int64(time.Millisecond))
	release, err := a.Acquire(ctx, "metered", 1)
	if err != nil {
		t.Fatalf("acquire after refill: %v", err)
	}
	release()
	// A second tenant has its own bucket: the first's debt does not
	// throttle it.
	for i := 0; i < 2; i++ {
		release, err := a.Acquire(ctx, "other", 1)
		if err != nil {
			t.Fatalf("second tenant's burst acquire %d: %v", i, err)
		}
		release()
	}
}

// TestAdmissionTenantTableBound: the tenant table refuses growth past
// MaxTenants instead of admitting an unbounded set of names.
func TestAdmissionTenantTableBound(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Slots: 64, MaxTenants: 4})
	defer a.Close()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		release, err := a.Acquire(ctx, fmt.Sprintf("t%d", i), 1)
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		release()
	}
	if _, err := a.Acquire(ctx, "one-too-many", 1); !errors.Is(err, ErrTenantTableFull) {
		t.Fatalf("5th tenant: err = %v, want ErrTenantTableFull", err)
	}
	// Known tenants keep working at the bound.
	release, err := a.Acquire(ctx, "t0", 1)
	if err != nil {
		t.Fatalf("known tenant at bound: %v", err)
	}
	release()
}

// TestAdmissionCancelAndClose: a parked waiter honors context
// cancellation, and Close fails the rest deterministically.
func TestAdmissionCancelAndClose(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Slots: 1})
	holder, err := a.Acquire(context.Background(), "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, "x", 1)
		errc <- err
	}()
	stillBlocked(t, errc, "waiter")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.Acquire(context.Background(), "x", 1)
			errs <- err
		}()
	}
	stillBlocked(t, errs, "waiter")
	a.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrAdmissionClosed) {
			t.Errorf("waiter after Close: err = %v, want ErrAdmissionClosed", err)
		}
	}
	holder() // releasing into a closed gate must not panic
	if _, err := a.Acquire(context.Background(), "x", 1); !errors.Is(err, ErrAdmissionClosed) {
		t.Errorf("Acquire after Close: err = %v, want ErrAdmissionClosed", err)
	}
}
