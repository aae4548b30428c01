package core

import (
	"context"
	"errors"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/closure"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
)

// Complementary decides whether π_X and π_Y are complementary views of the
// schema: whether π_X(R) and π_Y(R) jointly determine every legal R.
//
// For Σ of FDs and JDs this is Theorem 1: X, Y are complementary iff
// Σ ⊨ *[X, Y] (which requires X ∪ Y = U). With EFDs present it is
// Theorem 10: (a) Σ implies the embedded MVD X∩Y →→ X−Y | Y−X within
// X ∪ Y, and (b) Σ_F ⊨ X∪Y → U, where Σ_F holds the FDs underlying the
// EFDs of Σ (the part of U outside X ∪ Y must be explicitly computable).
func Complementary(s *Schema, x, y attr.Set) bool {
	ok, _ := ComplementaryBudget(nil, s, x, y)
	return ok
}

// ComplementaryBudget is Complementary under a budget: the tableau chase
// behind condition (a) honors cancellation between chase passes, and
// each call charges one step. A nil budget is unlimited; on exhaustion
// the error wraps ErrBudgetExceeded.
func ComplementaryBudget(b *budget.B, s *Schema, x, y attr.Set) (bool, error) {
	if err := b.Step(1); err != nil {
		return false, err
	}
	// Condition (b): (X∪Y)⁺ under the EFD-derived FDs covers U. Without
	// EFDs this degenerates to X ∪ Y = U, as in Theorem 1.
	var efdFDs []dep.FD
	for _, e := range s.sigma.EFDs() {
		efdFDs = append(efdFDs, e.FD())
	}
	if !closure.Closure(x.Union(y), efdFDs).Equal(s.u.All()) {
		return false, nil
	}
	// Condition (a): Σ ⊨ X∩Y →→ X−Y | Y−X embedded in X∪Y. EFDs
	// participate as their underlying FDs (Proposition 2(a)). On FD-only
	// schemas with X∪Y = U, use the dependency-basis fast path.
	sigma := s.sigma.WithFD()
	if !sigma.HasJDs() && x.Union(y).Equal(s.u.All()) {
		return chase.FDOnlyImpliesMVD(sigma.FDs(), dep.NewMVD(x.Intersect(y), x)), nil
	}
	return chase.ImpliesEmbeddedMVDBudget(b, sigma, x, y)
}

// SharedIsKeyOf reports whether Σ ⊨ X∩Y → Y, the "common part is
// a superkey of the complement" half of the paper's characterization, and
// whether Σ ⊨ X∩Y → X. Both use EFDs as FDs. These are the condition (b)
// inputs of Theorems 3, 8 and 9.
func SharedIsKeyOf(s *Schema, x, y attr.Set) (keyOfY, keyOfX bool) {
	shared := x.Intersect(y)
	sigma := s.sigma.WithFD()
	toY := dep.NewFD(shared, y)
	toX := dep.NewFD(shared, x)
	if !sigma.HasJDs() {
		fds := sigma.FDs()
		return closure.Implies(fds, toY), closure.Implies(fds, toX)
	}
	return chase.ImpliesFD(sigma, toY), chase.ImpliesFD(sigma, toX)
}

// MinimalComplement computes a nonredundant complement of X (Corollary 2):
// starting from the trivial complement U, repeatedly drop any attribute
// whose removal preserves complementarity, in ascending attribute order.
// The result is minimal (no attribute can be dropped) but not necessarily
// minimum (Theorem 2 shows minimum is NP-complete).
func MinimalComplement(s *Schema, x attr.Set) attr.Set {
	y, _ := MinimalComplementBudget(nil, s, x)
	return y
}

// MinimalComplementBudget is MinimalComplement under a budget. Because
// the reduction starts from the trivial complement U and only commits
// verified-complementary shrinks, the returned set is a valid complement
// even when the budget trips mid-way — it is then merely less reduced
// than the Corollary 2 result, and the error (wrapping
// ErrBudgetExceeded) reports the early stop.
func MinimalComplementBudget(b *budget.B, s *Schema, x attr.Set) (attr.Set, error) {
	y := s.u.All()
	for _, id := range s.u.All().IDs() {
		cand := y.Without(id)
		ok, err := ComplementaryBudget(b, s, x, cand)
		if err != nil {
			return y, err
		}
		if ok {
			y = cand
		}
	}
	return y, nil
}

// MinimumComplement computes a complement of X with the fewest attributes
// by exhaustive search over subsets of U in increasing size — exponential
// in |U| in the worst case, as Theorem 2's NP-completeness predicts.
// The boolean reports whether any complement exists (the trivial
// complement U always works, so it is false only for pathological
// schemas).
func MinimumComplement(s *Schema, x attr.Set) (attr.Set, bool) {
	y, ok, _ := MinimumComplementBudget(nil, s, x)
	return y, ok
}

// MinimumComplementCtx is MinimumComplement bounded by a context: the
// exponential subset enumeration checks cancellation on every candidate
// and aborts with an error wrapping ErrBudgetExceeded.
func MinimumComplementCtx(ctx context.Context, s *Schema, x attr.Set) (attr.Set, bool, error) {
	return MinimumComplementBudget(budget.New(ctx), s, x)
}

// MinimumComplementBudget is MinimumComplement under a budget; each
// candidate subset charges one step.
func MinimumComplementBudget(b *budget.B, s *Schema, x attr.Set) (attr.Set, bool, error) {
	for k := 0; k <= s.u.Size(); k++ {
		var found attr.Set
		ok := false
		var stop error
		s.u.All().SubsetsOfSize(k, func(y attr.Set) bool {
			isComp, err := ComplementaryBudget(b, s, x, y)
			if err != nil {
				stop = err
				return false
			}
			if isComp {
				found, ok = y, true
				return false
			}
			return true
		})
		if stop != nil {
			return attr.Set{}, false, stop
		}
		if ok {
			return found, true, nil
		}
	}
	return attr.Set{}, false, nil
}

// HasComplementOfSize decides the decision problem of Theorem 2: is there
// a complement Y of X with |Y| = k? NP-complete in general.
func HasComplementOfSize(s *Schema, x attr.Set, k int) (attr.Set, bool) {
	var found attr.Set
	ok := false
	s.u.All().SubsetsOfSize(k, func(y attr.Set) bool {
		if Complementary(s, x, y) {
			found, ok = y, true
			return false
		}
		return true
	})
	return found, ok
}

// Reconstruct rebuilds the database instance from complementary view
// instances vx = π_X(R) and vy = π_Y(R). For Σ of FDs and JDs the
// reconstruction operator is the natural join (Theorem 1); with EFDs
// present the join covers X∪Y and the remaining attributes need witness
// functions, which this function does not take — it errors if X∪Y ≠ U.
func Reconstruct(s *Schema, x, y attr.Set, vx, vy *relation.Relation) (*relation.Relation, error) {
	if !Complementary(s, x, y) {
		return nil, errors.New("core: views are not complementary")
	}
	if !x.Union(y).Equal(s.u.All()) {
		return nil, errors.New("core: X ∪ Y ≠ U; reconstruction needs EFD witness functions")
	}
	if !vx.Attrs().Equal(x) || !vy.Attrs().Equal(y) {
		return nil, errors.New("core: instance attribute sets do not match the views")
	}
	return vx.Join(vy), nil
}
