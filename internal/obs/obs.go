// Package obs is the repository's zero-dependency observability layer:
// atomic counters and bounded histograms with quantile estimates,
// collected in a Registry and exported as expvar-style JSON or
// Prometheus text format (see report.go).
//
// The layer is built to cost ~nothing when disabled. Every handle type
// (*Counter, *Histogram) is nil-safe: methods on a nil
// receiver are no-ops, so instrumented code holds a possibly-nil handle
// and calls it unconditionally. Instrumented packages expose a
// SetMetrics(obs.Sink) knob; passing nil restores the nil handles and
// with them the uninstrumented fast path (one pointer load and branch
// per kernel call).
//
// Metric naming scheme: <subsystem>_<noun>[_<unit>], where monotonic
// counters end in _total and duration histograms end in _ns. Examples:
// relation_join_probe_tuples_total, store_journal_fsync_ns.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Sink hands out named metric handles. A Registry is the standard
// implementation; instrumented packages accept the interface so tests
// can substitute their own. Callers must treat a nil Sink as "metrics
// disabled" and install nil handles.
type Sink interface {
	// Counter returns the named counter, creating it if needed.
	Counter(name string) *Counter
	// Histogram returns the named histogram, creating it if needed.
	Histogram(name string) *Histogram
}

// Counter is a monotonically increasing atomic counter. The nil
// *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram bucket layout: values land in geometric buckets
// [2^(i/histSubBuckets), 2^((i+1)/histSubBuckets)), so a quantile
// estimate is within a factor of 2^(1/histSubBuckets) ≈ 1.19 of the
// true order statistic. Bucket 0 absorbs values below 1, the last
// bucket absorbs everything past the top boundary. Memory per
// histogram is fixed: histNumBuckets words of counts plus five words
// of summary state — "bounded" no matter how many observations arrive.
const (
	histSubBuckets = 4
	histNumBuckets = 64 * histSubBuckets
)

// Histogram is a fixed-size concurrent histogram of non-negative
// values (typically nanoseconds). The nil *Histogram is a valid no-op
// instrument.
type Histogram struct {
	buckets [histNumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
	// Non-negative IEEE floats order the same as their bit patterns, so
	// min/max reduce to an atomic uint64 maximum: max holds the bits of
	// the maximum, min holds the *complemented* bits of the minimum
	// (complementing reverses the order and makes the zero value act as
	// an "unset" sentinel for both).
	min atomic.Uint64
	max atomic.Uint64
}

// bucketFor maps a value to its bucket index.
func bucketFor(v float64) int {
	if v < 1 {
		return 0
	}
	i := 1 + int(math.Log2(v)*histSubBuckets)
	if i >= histNumBuckets {
		return histNumBuckets - 1
	}
	return i
}

// bucketMid is the geometric midpoint of bucket i, the value Quantile
// reports for order statistics landing in it.
func bucketMid(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Exp2((float64(i-1) + 0.5) / histSubBuckets)
}

// Observe records one value. Negative values are clamped to 0. No-op
// on a nil receiver. Safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	bits := math.Float64bits(v)
	raiseBits(&h.max, bits)
	raiseBits(&h.min, ^bits)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(ns int64) { h.Observe(float64(ns)) }

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// raiseBits atomically raises *a to b if b is larger.
func raiseBits(a *atomic.Uint64, b uint64) {
	for {
		old := a.Load()
		if b <= old || a.CompareAndSwap(old, b) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Min returns the smallest observed value (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(^h.min.Load())
}

// Max returns the largest observed value (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) as the geometric
// midpoint of the bucket holding the order statistic, clamped to the
// observed [Min, Max]. The estimate is within a relative factor of
// 2^(1/4) of the true value. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histNumBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			v := bucketMid(i)
			if mn := h.Min(); v < mn {
				v = mn
			}
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.Max()
}

// Registry is a named collection of counters and histograms; it
// implements Sink. The zero value is not usable; call NewRegistry. A
// nil *Registry hands out nil handles, so it doubles as the disabled
// sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter implements Sink. On a nil receiver it returns the nil no-op
// counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram implements Sink. On a nil receiver it returns the nil
// no-op histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// counterNames returns the counter names, sorted.
func (r *Registry) counterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters))
	for n := range r.counters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// histNames returns the histogram names, sorted.
func (r *Registry) histNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.hists))
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
