// Package obs mimics the repository's internal/obs for analyzer
// fixtures: nilmetrics recognizes handle types by the package *name*,
// so consumer fixtures import this stand-in.
package obs

// Counter is a minimal stand-in for obs.Counter.
type Counter struct{ n int64 }

// Inc increments the counter. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Sink hands out named handles.
type Sink interface {
	Counter(name string) *Counter
}

// Clock is a minimal stand-in for obs.Clock: lockhold and errflow
// recognize Sleep by the receiver's package name, and deadlineflow's
// bad fixtures compare NowNS against a deadline that bounds no wait.
type Clock interface {
	NowNS() int64
	Sleep(ns int64)
}
