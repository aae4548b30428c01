package bench

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is the number of samples that must lie above a reported
// percentile: a percentile with fewer samples beyond it is one or two
// outliers, not a tail.
const MinBeyond = 10

// Percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank method — the value at 1-based rank ⌈q·n⌉ of the sorted
// samples — and the number of samples ranked above it. samples is not
// modified.
func Percentile(samples []float64, q float64) (v float64, beyond int) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, 0
	}
	s := make([]float64, n)
	copy(s, samples)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n - rank
}

// TailPercentile is Percentile with the MinBeyond rule enforced: it
// fails when fewer than MinBeyond samples lie above the q-quantile.
func TailPercentile(samples []float64, q float64) (float64, error) {
	v, beyond := Percentile(samples, q)
	if beyond < MinBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(samples), beyond, MinBeyond)
	}
	return v, nil
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
