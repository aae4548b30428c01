// Package delta represents relational updates as delta relations
// (Δ⁺, Δ⁻): the sets of tuples inserted into and deleted from an
// instance. The incremental decide/apply path in internal/core reasons
// about and applies these deltas so that update cost is proportional to
// |Δ|, not to the size of the instance (after Horn–Perera–Cheney,
// "Incremental Relational Lenses").
//
// A Delta is normalized when Plus and Minus are disjoint; Normalize
// cancels tuples that appear on both sides. The view-update
// translations produced by the core theorems are naturally normalized:
// an insert is pure Δ⁺, a Theorem-8 delete is pure Δ⁻, and a replace's
// doomed and added sets never overlap (t1 ≠ t2).
package delta

import (
	"fmt"
	"strings"

	"github.com/constcomp/constcomp/internal/relation"
)

// Delta is a pair of tuple sets over one relation layout: Minus is
// removed first, then Plus is inserted. Tuples are shared, not copied;
// callers must treat them as immutable (the same discipline as
// relation.Relation).
type Delta struct {
	Plus  []relation.Tuple
	Minus []relation.Tuple
}

// Insert returns the delta of a single-tuple insertion.
func Insert(t relation.Tuple) Delta { return Delta{Plus: []relation.Tuple{t}} }

// Delete returns the delta of a single-tuple deletion.
func Delete(t relation.Tuple) Delta { return Delta{Minus: []relation.Tuple{t}} }

// Replace returns the delta replacing t1 with t2.
func Replace(t1, t2 relation.Tuple) Delta {
	return Delta{Plus: []relation.Tuple{t2}, Minus: []relation.Tuple{t1}}
}

// Size is |Δ| = |Δ⁺| + |Δ⁻|, the budget-relevant measure of an update.
func (d Delta) Size() int { return len(d.Plus) + len(d.Minus) }

// Empty reports whether the delta is a no-op.
func (d Delta) Empty() bool { return len(d.Plus) == 0 && len(d.Minus) == 0 }

// AddPlus appends a tuple to Δ⁺.
func (d *Delta) AddPlus(t relation.Tuple) { d.Plus = append(d.Plus, t) }

// AddMinus appends a tuple to Δ⁻.
func (d *Delta) AddMinus(t relation.Tuple) { d.Minus = append(d.Minus, t) }

// Inverse returns the delta that undoes d (Δ⁺ and Δ⁻ swapped). Applying
// d then d.Inverse() to an instance that contained no Plus tuple and all
// Minus tuples restores it exactly.
func (d Delta) Inverse() Delta { return Delta{Plus: d.Minus, Minus: d.Plus} }

// Normalize cancels tuples present in both Δ⁺ and Δ⁻ (delete-then-
// reinsert is a no-op on sets) and drops duplicates within each side.
// The receiver is unchanged; the result shares surviving tuples.
func (d Delta) Normalize() Delta {
	plus := dedup(d.Plus)
	minus := dedup(d.Minus)
	var outPlus, outMinus []relation.Tuple
	for _, t := range plus {
		if !contains(minus, t) {
			outPlus = append(outPlus, t)
		}
	}
	for _, t := range minus {
		if !contains(plus, t) {
			outMinus = append(outMinus, t)
		}
	}
	return Delta{Plus: outPlus, Minus: outMinus}
}

// ApplyTo mutates r by the delta: Minus tuples are deleted, then Plus
// tuples inserted. It reports how many deletions and insertions actually
// changed the relation (a Minus tuple absent from r or a Plus tuple
// already present is a set-semantics no-op).
func (d Delta) ApplyTo(r *relation.Relation) (ins, del int) {
	for _, t := range d.Minus {
		if r.Delete(t) {
			del++
		}
	}
	for _, t := range d.Plus {
		if r.Insert(t) {
			ins++
		}
	}
	return ins, del
}

// Of computes the delta transforming from into to: Δ⁻ = from − to,
// Δ⁺ = to − from. Both relations must share a layout. The result is
// normalized by construction.
func Of(from, to *relation.Relation) Delta {
	var d Delta
	from.Each(func(_ int, t relation.Tuple) bool {
		if !to.Contains(t) {
			d.Minus = append(d.Minus, t)
		}
		return true
	})
	to.Each(func(_ int, t relation.Tuple) bool {
		if !from.Contains(t) {
			d.Plus = append(d.Plus, t)
		}
		return true
	})
	return d
}

// String renders the delta compactly for logs and test failures.
func (d Delta) String() string {
	var b strings.Builder
	b.WriteString("Δ{+")
	fmt.Fprintf(&b, "%d", len(d.Plus))
	b.WriteString(" -")
	fmt.Fprintf(&b, "%d", len(d.Minus))
	b.WriteString("}")
	return b.String()
}

func dedup(ts []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for _, t := range ts {
		if !contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

func contains(ts []relation.Tuple, t relation.Tuple) bool {
	for _, u := range ts {
		if u.Equal(t) {
			return true
		}
	}
	return false
}
