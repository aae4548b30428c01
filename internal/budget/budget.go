// Package budget bounds the execution of the repository's expensive
// decision procedures — the NP-complete minimum-complement search
// (Theorem 2), the tableau and instance chases, and the DPLL/QBF
// solvers. A budget from New is bounded by its context alone
// (cancellation or deadline); WithSteps adds a step allowance on top.
// A nil *B means "unlimited" so hot paths can share one code path for
// budgeted and unbudgeted callers.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/obs"
)

// ErrExceeded is returned (wrapped) whenever a procedure runs out of
// budget: its context was cancelled, its deadline passed, or its step
// allowance ran dry. Callers test with errors.Is.
var ErrExceeded = errors.New("budget exceeded")

// B tracks the remaining budget of one logical operation. The zero
// value and the nil pointer are both unlimited; construct bounded
// budgets with New or WithSteps.
//
// A B is not safe for concurrent use; budgeted procedures are
// sequential by design.
type B struct {
	ctx   context.Context
	steps int64
	// limit is the original step allowance (0 when unlimited); used is
	// the running consumption, for the obs layer's consumption-vs-limit
	// reporting.
	limit int64
	used  int64
	// limited reports whether the step counter is enforced.
	limited bool
	// err is sticky: once the budget trips, every Check fails.
	err error
}

// budgetMetrics holds the resolved metric handles for all budgets.
type budgetMetrics struct {
	steps    *obs.Counter
	exceeded *obs.Counter
	// utilizationPct records used/limit at the moment a *limited* budget
	// trips or is inspected via Utilization; unlimited budgets never
	// observe it.
	utilizationPct *obs.Histogram
}

var bmetrics atomic.Pointer[budgetMetrics]

// SetMetrics installs (or, with nil, removes) the metrics sink for
// budget accounting.
func SetMetrics(s obs.Sink) {
	if s == nil {
		bmetrics.Store(nil)
		return
	}
	bmetrics.Store(&budgetMetrics{
		steps:          s.Counter("budget_steps_total"),
		exceeded:       s.Counter("budget_exceeded_total"),
		utilizationPct: s.Histogram("budget_utilization_pct"),
	})
}

// New returns a budget bounded only by ctx. A nil ctx means unlimited.
func New(ctx context.Context) *B {
	return &B{ctx: ctx}
}

// WithSteps returns a budget bounded by ctx and by a step allowance:
// after steps calls' worth of Step(n) the budget trips.
func WithSteps(ctx context.Context, steps int64) *B {
	return &B{ctx: ctx, steps: steps, limit: steps, limited: true}
}

// Step consumes n steps and reports whether the budget still holds. It
// is nil-safe: a nil receiver is unlimited and always returns nil. On
// exhaustion it returns an error wrapping ErrExceeded, and keeps
// returning it on every subsequent call.
func (b *B) Step(n int64) error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.used += n
	if m := bmetrics.Load(); m != nil {
		m.steps.Add(n)
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			b.err = fmt.Errorf("%w: %v", ErrExceeded, err)
			b.trip()
			return b.err
		}
	}
	if b.limited {
		b.steps -= n
		if b.steps < 0 {
			b.err = fmt.Errorf("%w: step allowance exhausted", ErrExceeded)
			b.trip()
			return b.err
		}
	}
	return nil
}

// trip publishes the exhaustion to the obs layer.
func (b *B) trip() {
	m := bmetrics.Load()
	if m == nil {
		return
	}
	m.exceeded.Inc()
	if b.limited && b.limit > 0 {
		m.utilizationPct.Observe(100 * float64(b.used) / float64(b.limit))
	}
}

// Used returns the steps consumed so far (0 on a nil receiver).
func (b *B) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used
}

// Check is Step(0): it tests cancellation without consuming steps.
func (b *B) Check() error { return b.Step(0) }

// Err returns the sticky error if the budget has tripped, else nil.
func (b *B) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}
