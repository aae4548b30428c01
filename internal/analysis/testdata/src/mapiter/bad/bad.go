// Failing fixtures for mapiter: map iteration order escaping into
// emitted rows.
package bad

import (
	"fmt"
	"sort"
)

// Append into an outer slice with no later sort.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append inside range-over-map leaks map iteration order into "out"`
	}
	return out
}

// Writing output mid-iteration makes the order externally visible.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `output written inside range-over-map follows map iteration order`
	}
}

// Checking sortedness does not sort.
func CheckedValues(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want `append inside range-over-map leaks map iteration order into "out"`
	}
	_ = sort.IntsAreSorted(out)
	return out
}
