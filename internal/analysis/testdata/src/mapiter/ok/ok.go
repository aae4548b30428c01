// Passing fixtures for mapiter: map iteration whose order is sorted
// away, stays inside the loop, or cannot reach any output.
package ok

import (
	"slices"
	"sort"
)

// Collect-then-sort is the sanctioned pattern.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// slices.Sort and a callee named Sort* sort too.
func Values(m map[string]int) ([]int, []int) {
	var a, b []int
	for _, v := range m {
		a = append(a, v)
		b = append(b, v)
	}
	slices.Sort(a)
	SortDesc(b)
	return a, b
}

// SortDesc sorts s in decreasing order.
func SortDesc(s []int) { sort.Sort(sort.Reverse(sort.IntSlice(s))) }

// Order-insensitive aggregation.
func Sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Map-to-map transforms have no order to leak.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Accumulators declared inside the body reset every iteration; only
// cross-iteration order escape matters.
func Widths(m map[string][]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, vs := range m {
		var row []int
		row = append(row, vs...)
		out[k] = len(row)
	}
	return out
}
