package bench

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestPercentileMatchesSortedOracle checks the nearest-rank percentile
// against indexing a sorted copy directly.
func TestPercentileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			got, beyond := Percentile(xs, q)
			if got != sorted[rank-1] || beyond != n-rank {
				t.Fatalf("n=%d q=%g: got (%g, %d beyond), want (%g, %d)", n, q, got, beyond, sorted[rank-1], n-rank)
			}
		}
	}
	if v, beyond := Percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Fatalf("empty sample: got (%g, %d)", v, beyond)
	}
}

// TestTailPercentileNeedsTenBeyond checks the sample-count rule: a tail
// percentile is reported only with at least ten samples above it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, // rank 990, 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{99, 0.90, false},  // rank 90, 9 beyond
		{100, 0.90, true},  // rank 90, 10 beyond
		{20, 0.50, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, err := TailPercentile(xs, c.q)
		if (err == nil) != c.ok {
			t.Errorf("n=%d q=%g: err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestSegmentStatistics checks the per-segment medians the end-to-end
// timings are reported as: a slow stretch confined to a minority of
// segments does not move them, and a tail needs its ten samples beyond
// in every segment.
func TestSegmentStatistics(t *testing.T) {
	// 3,300 one-op samples, one per millisecond, 1 ms latency — except a
	// stall in the last 20% of the run: 10 ms latency and ops every 5 ms.
	var xs []Sample
	at := int64(0)
	for i := 0; i < 3300; i++ {
		lat, gap := 1.0, int64(1e6)
		if i >= 2640 {
			lat, gap = 10, 5e6
		}
		at += gap
		xs = append(xs, Sample{DoneNS: at, MS: lat, Ops: 1})
	}
	// Shuffle: segments must order by completion time themselves.
	rng := rand.New(rand.NewSource(2))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })

	if got := OpsPerSecond(&Phase{Updates: xs}, nil); math.Abs(got-1000) > 1e-6 {
		t.Errorf("ops/s %g, want 1000 (the stalled segments are the minority)", got)
	}
	if got, err := SegmentLatency(xs, medianSegments, 0.5); err != nil || got != 1 {
		t.Errorf("segment p50 %g (%v), want 1", got, err)
	}
	if got, err := SegmentLatency(xs, tailSegments, 0.99); err != nil || got != 1 {
		t.Errorf("segment p99 %g (%v), want 1", got, err)
	}
	if _, err := SegmentLatency(xs, tailSegments, 0.999); err == nil {
		t.Error("p99.9 of 1,100-sample segments passed the ten-beyond rule")
	}
	recs := make([]Recovery, 22)
	for i := range recs {
		recs[i].MS = 2
	}
	recs[0].MS, recs[1].MS = 50, 50 // one stalled group
	if got := RecoverMS(recs); got != 2 {
		t.Errorf("recover_ms %g, want 2", got)
	}
}
