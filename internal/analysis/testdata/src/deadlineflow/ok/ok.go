// Passing fixtures for deadlineflow: every potentially-blocking
// channel operation is bounded by its own shape, or is a sanctioned
// lifecycle wait.
package ok

import "context"

// Pipeline mimics the serve pipeline's channel topology.
type Pipeline struct {
	submit chan int
	quit   chan struct{}
}

// SubmitCtx parks on the submit queue only alongside a ctx.Done case:
// the select itself is the escape hatch.
func (p *Pipeline) SubmitCtx(ctx context.Context, v int) error {
	select {
	case p.submit <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrySubmit never parks: the default makes the select non-blocking.
func (p *Pipeline) TrySubmit(v int) bool {
	select {
	case p.submit <- v:
		return true
	default:
		return false
	}
}

// WaitQuit parks on the lifecycle signal channel — a wait for the
// peer's lifetime, exempt by convention (chan struct{}).
func (p *Pipeline) WaitQuit() {
	<-p.quit
}

// Drain consumes until the producer closes the channel: the drain
// idiom, bounded by the producer's lifecycle.
func (p *Pipeline) Drain() int {
	s := 0
	for v := range p.submit {
		s += v
	}
	return s
}

// Spawn's literal is its spawner's concern, not this function's.
func (p *Pipeline) Spawn() func(int) {
	return func(v int) { p.submit <- v }
}

// Ack is the sanctioned exception shape: a per-request buffered reply
// channel the protocol guarantees capacity for.
func (p *Pipeline) Ack(v int) {
	//constvet:allow deadlineflow -- per-request buffered reply channel, capacity guaranteed by the protocol
	p.submit <- v
}
