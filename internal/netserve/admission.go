package netserve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/constcomp/constcomp/internal/obs"
)

// ErrTenantTableFull rejects a request from a tenant the admission
// table has no room to track; known tenants are unaffected.
var ErrTenantTableFull = errors.New("netserve: tenant table full")

// ErrAdmissionClosed fails waiters when the admission gate shuts down.
var ErrAdmissionClosed = errors.New("netserve: admission closed")

// ThrottleError is returned when a tenant's token bucket cannot cover a
// request: the tenant is over its configured sustained rate. It carries
// the wait until the bucket has refilled enough, which the HTTP layer
// converts into a Retry-After.
type ThrottleError struct {
	Tenant       string
	RetryAfterNS int64
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("netserve: tenant %q throttled, retry in %dns", e.Tenant, e.RetryAfterNS)
}

// AdmissionOptions configures the gate. The zero value is ready to use.
type AdmissionOptions struct {
	// Slots is how many admitted submissions may be in flight toward
	// the pipelines at once; further requests wait for a slot in
	// arrival order. Default 16.
	Slots int
	// MaxTenants bounds the tenant table — the gate tracks per-tenant
	// bucket state, and an unbounded table is a memory leak under
	// adversarial tenant names. Default 64.
	MaxTenants int
	// Rate is the sustained ops/second each tenant's token bucket
	// allows. Zero means unlimited (no bucket).
	Rate float64
	// Burst is each bucket's capacity in ops. Zero means one second's
	// worth (Rate).
	Burst float64
	// Clock is the time source for bucket refill and slot-wait timing;
	// nil means the real monotonic clock.
	Clock obs.Clock
}

// tenantState is one tenant's token bucket (used when Rate > 0 only):
// tokens may go negative when a request larger than the remaining
// tokens is admitted from a full bucket; the debt throttles subsequent
// requests until refill.
type tenantState struct {
	tokens   float64
	refillNS int64
}

// Admission is the gate in front of the submit path: a per-tenant token
// bucket bounds each tenant's sustained rate (429 + Retry-After past
// it), and a FIFO semaphore bounds the submissions in flight toward the
// pipelines. It does not arbitrate between tenants: behind it every op
// enters its view's one FIFO submit queue.
type Admission struct {
	opts AdmissionOptions // defaults resolved
	// slots holds one token per in-flight submission; a full channel
	// parks senders in arrival order.
	slots chan struct{}
	// done is closed by Close to fail parked waiters and later arrivals.
	done      chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// NewAdmission builds the gate.
func NewAdmission(opts AdmissionOptions) *Admission {
	if opts.Slots <= 0 {
		opts.Slots = 16
	}
	if opts.MaxTenants <= 0 {
		opts.MaxTenants = 64
	}
	if opts.Burst <= 0 {
		opts.Burst = opts.Rate
	}
	if opts.Clock == nil {
		opts.Clock = obs.SystemClock()
	}
	return &Admission{
		opts:    opts,
		slots:   make(chan struct{}, opts.Slots),
		done:    make(chan struct{}),
		tenants: make(map[string]*tenantState, opts.MaxTenants),
	}
}

// tenantLocked finds or creates the tenant record.
func (a *Admission) tenantLocked(name string) (*tenantState, error) {
	if t, ok := a.tenants[name]; ok {
		return t, nil
	}
	if len(a.tenants) >= a.opts.MaxTenants {
		return nil, fmt.Errorf("%w: %d tenants tracked", ErrTenantTableFull, len(a.tenants))
	}
	t := &tenantState{tokens: a.opts.Burst, refillNS: a.opts.Clock.NowNS()}
	a.tenants[name] = t
	return t, nil
}

// chargeLocked runs the token bucket for cost ops: refill by elapsed
// time, then either charge or compute the wait. A request admitted from
// a full bucket may drive tokens negative (cost > Burst would otherwise
// never clear), which self-limits the next requests.
func (a *Admission) chargeLocked(name string, t *tenantState, cost float64) *ThrottleError {
	rate, burst := a.opts.Rate, a.opts.Burst
	if rate <= 0 {
		return nil
	}
	now := a.opts.Clock.NowNS()
	if dt := now - t.refillNS; dt > 0 {
		t.tokens = math.Min(burst, t.tokens+rate*float64(dt)/1e9)
	}
	t.refillNS = now
	need := math.Min(cost, burst)
	if t.tokens < need {
		wait := (need - t.tokens) / rate * 1e9
		return &ThrottleError{Tenant: name, RetryAfterNS: int64(math.Ceil(wait))}
	}
	t.tokens -= cost
	return nil
}

// Acquire admits a request of cost ops for tenant, blocking in arrival
// order when all slots are busy. On success it returns the release
// closure that frees the slot (callers must invoke it exactly once,
// after their pipeline submission completes). Failure modes:
// *ThrottleError (over rate), ErrTenantTableFull, ctx cancellation
// while waiting, ErrAdmissionClosed.
func (a *Admission) Acquire(ctx context.Context, tenant string, cost float64) (func(), error) {
	if cost <= 0 {
		cost = 1
	}
	select {
	case <-a.done:
		return nil, ErrAdmissionClosed
	default:
	}
	a.mu.Lock()
	t, err := a.tenantLocked(tenant)
	if err != nil {
		a.mu.Unlock()
		if m := nsmetrics.Load(); m != nil {
			m.tenantFull.Inc()
		}
		return nil, err
	}
	if terr := a.chargeLocked(tenant, t, cost); terr != nil {
		a.mu.Unlock()
		if m := nsmetrics.Load(); m != nil {
			m.throttled.Inc()
		}
		return nil, terr
	}
	a.mu.Unlock()

	select {
	case a.slots <- struct{}{}:
	default:
		// Contended: park until a release, timing the wait.
		waitStart := a.opts.Clock.NowNS()
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-a.done:
			return nil, ErrAdmissionClosed
		}
		if m := nsmetrics.Load(); m != nil {
			m.slotWaitNs.ObserveDuration(a.opts.Clock.NowNS() - waitStart)
		}
	}
	if m := nsmetrics.Load(); m != nil {
		m.admitted.Inc()
	}
	return a.release, nil
}

// release frees one slot, handing it to the longest-parked waiter.
func (a *Admission) release() { <-a.slots }

// Close fails all parked waiters with ErrAdmissionClosed and rejects
// future Acquires. Slots still held may be released afterwards.
func (a *Admission) Close() { a.closeOnce.Do(func() { close(a.done) }) }
