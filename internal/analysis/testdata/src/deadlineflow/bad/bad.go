// Failing fixtures for deadlineflow: channel operations that can park
// the goroutine forever. A check made before the park (a ctx.Err poll,
// a deadline comparison, a budget step) does not bound it: nothing
// wakes the goroutine once it waits.
package bad

import (
	"context"

	"fixtures/budget"
	"fixtures/obs"
)

// Pipeline mimics the serve pipeline's channel topology.
type Pipeline struct {
	submit chan int
	data   chan int
}

// Submit parks forever if the decider is stuck.
func (p *Pipeline) Submit(v int) {
	p.submit <- v // want `channel send has no bound on its wait`
}

// Recv parks on a data channel (not a signal channel) with no bound.
func (p *Pipeline) Recv() int {
	return <-p.data // want `channel receive has no bound on its wait`
}

// Shuffle's select has neither a default nor an escape case.
func (p *Pipeline) Shuffle() (got int) {
	select { // want `blocking select \(no default, no ctx/signal case\) has no bound`
	case v := <-p.data:
		got = v
	case p.submit <- 0:
	}
	return got
}

// SubmitDeadline compares the clock against the queue deadline, then
// parks with no bound: the deadline can pass during the wait.
func (p *Pipeline) SubmitDeadline(c obs.Clock, v int, deadline int64) bool {
	if c.NowNS() > deadline {
		return false
	}
	p.submit <- v // want `channel send has no bound on its wait`
	return true
}

// SubmitBudget spends a budget step, then parks with no bound.
func (p *Pipeline) SubmitBudget(b *budget.B, v int) error {
	if err := b.Step(1); err != nil {
		return err
	}
	p.submit <- v // want `channel send has no bound on its wait`
	return nil
}

// CtxErrPoll polls the context, then parks on a receive that a later
// cancellation cannot end.
func (p *Pipeline) CtxErrPoll(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return <-p.submit, nil // want `channel receive has no bound on its wait`
}

// LateGuard reads the deadline only after the park returns.
func (p *Pipeline) LateGuard(c obs.Clock, deadline int64, v int) bool {
	p.submit <- v // want `channel send has no bound on its wait`
	return c.NowNS() < deadline
}

// BranchGuard reads the deadline on one path only; either way the send
// that follows parks with no bound.
func (p *Pipeline) BranchGuard(c obs.Clock, fast bool, deadline int64, v int) {
	if fast {
		_ = c.NowNS() > deadline
	}
	p.submit <- v // want `channel send has no bound on its wait`
}
