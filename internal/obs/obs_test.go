package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestNilHandlesNoOp exercises every instrument through nil handles:
// nothing may panic and nothing may be recorded. This is the contract
// instrumented packages rely on when metrics are disabled.
func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var h *Histogram
	h.Observe(1.5)
	h.ObserveDuration(100)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}

	var reg *Registry
	if reg.Counter("x") != nil || reg.Histogram("x") != nil {
		t.Fatal("nil registry handed out live handles")
	}
	if got := reg.Snapshot(); len(got.Counters) != 0 || len(got.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestNilSinkInterface checks the pattern instrumented packages use: a
// nil Sink interface value means "hand out nil handles".
func TestNilSinkInterface(t *testing.T) {
	var s Sink
	if s != nil {
		t.Fatal("zero Sink not nil")
	}
	// A typed-nil *Registry behind the interface must still be safe.
	s = (*Registry)(nil)
	if s.Counter("a") != nil || s.Histogram("b") != nil {
		t.Fatal("typed-nil registry handed out live handles")
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// Same name must resolve to the same counter.
	if reg.Counter("hits") != c {
		t.Fatal("registry returned a different counter for the same name")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Min() != 0 {
		t.Fatalf("min = %g, want 0", h.Min())
	}
	if want := float64(workers*per - 1); h.Max() != want {
		t.Fatalf("max = %g, want %g", h.Max(), want)
	}
	wantSum := float64(workers*per) * float64(workers*per-1) / 2
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

// TestHistogramQuantileOracle drives the bucketed quantile estimate
// against the exact sorted-slice order statistic: every estimate must
// be within the bucket resolution (a relative factor of 2^(1/4)) of
// the truth.
func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		h := &Histogram{}
		n := 100 + rng.Intn(5000)
		vals := make([]float64, n)
		for i := range vals {
			// Log-uniform over ~9 decades, the shape of latency data.
			vals[i] = math.Exp(rng.Float64() * 20)
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		gamma := math.Exp2(1.0 / histSubBuckets)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			oracle := vals[rank-1]
			got := h.Quantile(q)
			lo, hi := oracle/gamma, oracle*gamma
			// Clamping to observed min/max can only tighten the bound.
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Fatalf("trial %d: q=%g estimate %g outside [%g, %g] (oracle %g)",
					trial, q, got, lo, hi, oracle)
			}
		}
	}
}

func TestHistogramSmallAndEdge(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(-5) // clamped to 0
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative observation not clamped: min=%g max=%g", h.Min(), h.Max())
	}
	h.Observe(7)
	if got := h.Quantile(1); got != 7 {
		t.Fatalf("q=1 of {0,7} = %g, want 7 (max clamp)", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q=0 of {0,7} = %g, want 0 (min clamp)", got)
	}
	h.Observe(math.NaN()) // clamped to 0, must not poison sum
	if math.IsNaN(h.Sum()) {
		t.Fatal("NaN observation poisoned the sum")
	}
}

func TestReportFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("relation_join_calls_total").Add(3)
	reg.Histogram("store_journal_fsync_ns").Observe(1000)
	reg.Histogram("store_journal_fsync_ns").Observe(2000)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, buf.String())
	}
	if snap.Counters["relation_join_calls_total"] != 3 {
		t.Fatalf("counter lost in JSON round-trip: %+v", snap)
	}
	hs := snap.Histograms["store_journal_fsync_ns"]
	if hs.Count != 2 || hs.Sum != 3000 || hs.Min != 1000 || hs.Max != 2000 {
		t.Fatalf("histogram summary wrong: %+v", hs)
	}

	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE relation_join_calls_total counter",
		"relation_join_calls_total 3",
		"# TYPE store_journal_fsync_ns summary",
		`store_journal_fsync_ns{quantile="0.5"}`,
		"store_journal_fsync_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
