// Package delta represents relational updates as delta relations
// (Δ⁺, Δ⁻): the sets of tuples inserted into and deleted from an
// instance. The incremental decide/apply path in internal/core builds
// a translation's base-instance change as a Delta and applies it, so
// that update cost is proportional to |Δ|, not to the size of the
// instance (after Horn–Perera–Cheney, "Incremental Relational Lenses").
package delta

import "github.com/constcomp/constcomp/internal/relation"

// Delta is a pair of tuple sets over one relation layout: Minus is
// removed first, then Plus is inserted. Tuples are shared, not copied;
// callers must treat them as immutable (the same discipline as
// relation.Relation).
type Delta struct {
	Plus  []relation.Tuple
	Minus []relation.Tuple
}

// AddPlus appends a tuple to Δ⁺.
func (d *Delta) AddPlus(t relation.Tuple) { d.Plus = append(d.Plus, t) }

// AddMinus appends a tuple to Δ⁻.
func (d *Delta) AddMinus(t relation.Tuple) { d.Minus = append(d.Minus, t) }

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
