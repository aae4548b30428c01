package netserve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/obs"
)

// enqueueWaiter blocks a goroutine in Acquire and returns a channel that
// yields the release func once the slot is granted. The caller must wait
// for Queued() to grow before enqueueing the next waiter, so heap seq
// numbers are deterministic. The release func is in the channel before
// the grant is reported on order, so a caller that reads order can
// always collect it without blocking.
func enqueueWaiter(t *testing.T, a *Admission, tenant string, order chan<- string) <-chan func() {
	t.Helper()
	got := make(chan func(), 1)
	go func() {
		release, err := a.Acquire(context.Background(), tenant, 1)
		if err != nil {
			t.Errorf("Acquire(%s): %v", tenant, err)
			close(got)
			return
		}
		got <- release
		order <- tenant
	}()
	return got
}

func waitQueued(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Queued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("Queued() = %d, want %d", a.Queued(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionWeightedFairness is the tenant-fairness property: with
// one slot and a 4:1 weight split, a flooding tenant's queue cannot
// starve the well-behaved tenant — grants interleave by virtual finish
// time, four "good" grants for every "hog" grant, regardless of how
// deep the hog's backlog is.
func TestAdmissionWeightedFairness(t *testing.T) {
	a := NewAdmission(AdmissionOptions{
		Slots: 1,
		Tenants: map[string]TenantConfig{
			"good": {Weight: 4},
			"hog":  {Weight: 1},
		},
	})
	defer a.Close()

	// Occupy the only slot so every subsequent Acquire queues.
	holder, err := a.Acquire(context.Background(), "holder", 1)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 16)
	var releases []<-chan func()
	// Interleave enqueues hog-first: fairness must come from the fair
	// queue, not arrival order.
	for i := 0; i < 8; i++ {
		releases = append(releases, enqueueWaiter(t, a, "hog", order))
		waitQueued(t, a, 2*i+1)
		releases = append(releases, enqueueWaiter(t, a, "good", order))
		waitQueued(t, a, 2*i+2)
	}

	// Drain: each grant is released immediately, letting the queue pick
	// the next waiter by (virtual finish, seq).
	holder()
	var got []string
	for range releases {
		tenant := <-order
		got = append(got, tenant)
		// The waiter that just ran hands us its release func; fire it to
		// admit the next one.
		for _, ch := range releases {
			select {
			case rel := <-ch:
				rel()
			default:
			}
		}
	}

	// Weight 4 vs 1: in every 5-grant window the good tenant gets 4.
	// Check the first two windows exactly; the whole run must split 8/8
	// only because both backlogs are equal length.
	count := func(s []string, tenant string) int {
		n := 0
		for _, x := range s {
			if x == tenant {
				n++
			}
		}
		return n
	}
	if g := count(got[:5], "good"); g != 4 {
		t.Errorf("first 5 grants: good got %d, want 4 (order %v)", g, got)
	}
	if g := count(got[:10], "good"); g != 8 {
		t.Errorf("first 10 grants: good got %d, want 8 (order %v)", g, got)
	}
	if a.Granted("good") != 8 || a.Granted("hog") != 8 {
		t.Errorf("granted totals good=%d hog=%d, want 8/8", a.Granted("good"), a.Granted("hog"))
	}
}

// TestAdmissionFairnessProperty is the randomized form: arbitrary
// weights and arrival interleavings, one slot, equal backlogs. Over the
// full drain each tenant's grant share in the first half must be within
// a factor of two of its weight share — WFQ's service guarantee, loose
// enough to absorb tie-breaks.
func TestAdmissionFairnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		wA := 1 + rng.Intn(8)
		wB := 1 + rng.Intn(8)
		a := NewAdmission(AdmissionOptions{
			Slots: 1,
			Tenants: map[string]TenantConfig{
				"A": {Weight: float64(wA)},
				"B": {Weight: float64(wB)},
			},
		})
		holder, err := a.Acquire(context.Background(), "holder", 1)
		if err != nil {
			t.Fatal(err)
		}
		const per = 12
		order := make(chan string, 2*per)
		var releases []<-chan func()
		for i := 0; i < per; i++ {
			first, second := "A", "B"
			if rng.Intn(2) == 0 {
				first, second = second, first
			}
			releases = append(releases, enqueueWaiter(t, a, first, order))
			waitQueued(t, a, 2*i+1)
			releases = append(releases, enqueueWaiter(t, a, second, order))
			waitQueued(t, a, 2*i+2)
		}
		holder()
		var got []string
		for range releases {
			got = append(got, <-order)
			for _, ch := range releases {
				select {
				case rel := <-ch:
					rel()
				default:
				}
			}
		}
		half := got[:per]
		nA := 0
		for _, x := range half {
			if x == "A" {
				nA++
			}
		}
		shareA := float64(nA) / float64(per)
		wantA := float64(wA) / float64(wA+wB)
		if shareA < wantA/2 || shareA > 1-(1-wantA)/2 {
			t.Errorf("weights %d:%d — A served %.2f of the first half, want near %.2f (order %v)",
				wA, wB, shareA, wantA, got)
		}
		a.Close()
	}
}

// TestAdmissionTokenBucket: a rate-limited tenant is throttled once its
// burst is spent, with a retry hint, and refills with the clock.
func TestAdmissionTokenBucket(t *testing.T) {
	clk := obs.NewManualClock()
	a := NewAdmission(AdmissionOptions{
		Slots:   16,
		Clock:   clk,
		Tenants: map[string]TenantConfig{"metered": {Rate: 10, Burst: 2}},
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
	// An unmetered tenant is never throttled.
	for i := 0; i < 100; i++ {
		release, err := a.Acquire(ctx, "free", 1)
		if err != nil {
			t.Fatalf("unmetered acquire: %v", err)
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

// TestAdmissionCancelAndClose: a queued waiter honors context
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
	waitQueued(t, a, 1)
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
	waitQueued(t, a, 3)
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
