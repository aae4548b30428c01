package chase

import (
	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Result is the outcome of chasing a relation with labeled nulls under a
// set of FDs. It answers which symbols were equated and whether the chase
// derived a contradiction (equated two distinct constants).
//
// In the paper's Theorem 3 vocabulary, the chase of R(V, t, r, f)
// "succeeds" when it equates two distinct elements of V (a constant
// clash) or equates the designated pair r[A], μ[A]; callers express that
// as res.ConstClash() || res.Same(rA, muA).
type Result struct {
	clash  bool
	parent map[value.Value]value.Value
	rel    *relation.Relation
}

// ConstClash reports whether the chase attempted to equate two distinct
// constants. When true, no legal instance matches the chased pattern.
func (r *Result) ConstClash() bool { return r.clash }

// Find returns the representative of v after the chase: a constant if v
// was equated (directly or transitively) with one, otherwise the
// least-index null of its class.
func (r *Result) Find(v value.Value) value.Value {
	root := v
	for {
		p, ok := r.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	// Path compression for subsequent queries.
	for v != root {
		next := r.parent[v]
		r.parent[v] = root
		v = next
	}
	return root
}

// Same reports whether the chase equated a and b.
func (r *Result) Same(a, b value.Value) bool { return r.Find(a) == r.Find(b) }

// Relation returns the chased relation: every symbol replaced by its
// representative, duplicate rows removed. It is nil if the chase clashed.
func (r *Result) Relation() *relation.Relation { return r.rel }

// union merges the classes of a and b, preferring constants (and, among
// constants, failing on distinctness; among nulls, the smaller index) as
// representative. Reports whether a merge happened.
func (r *Result) union(a, b value.Value) bool {
	ra, rb := r.Find(a), r.Find(b)
	if ra == rb {
		return false
	}
	if ra.IsConst() && rb.IsConst() {
		r.clash = true
		return false
	}
	// Constant wins; otherwise smaller null index wins.
	if rb.IsConst() || (!ra.IsConst() && rb > ra) {
		ra, rb = rb, ra
	}
	r.parent[rb] = ra
	return true
}

// Instance chases rel with the functional dependencies fds using
// hash-bucket passes over a union-find, and returns the Result. rel is not
// modified. FDs may have multi-attribute right-hand sides.
//
// The fixpoint is reached when a full pass over all FDs produces no new
// equation; each pass costs O(|Σ| · |rel|) hash operations and the number
// of passes is bounded by the number of nulls, matching the
// O(|V|²·|Σ|·|Y−X|) symbol-elimination argument of the paper's Corollary
// (each productive pass retires at least one symbol).
func Instance(rel *relation.Relation, fds []dep.FD) *Result {
	res, _ := InstanceBudget(nil, rel, fds)
	return res
}

// InstanceBudget is Instance under a budget: the fixpoint loop consumes
// one step per row examined in each FD pass and aborts with a
// budget.ErrExceeded-wrapping error as soon as the budget trips —
// cancellation is honored between chase passes, never mid-pass. A nil
// budget is unlimited and never errors.
func InstanceBudget(b *budget.B, rel *relation.Relation, fds []dep.FD) (*Result, error) {
	res := &Result{parent: make(map[value.Value]value.Value)}
	plans := make([][2][]int, 0, len(fds))
	for _, f := range fds {
		zc := make([]int, 0, f.From.Len())
		f.From.Each(func(id attr.ID) bool { zc = append(zc, rel.Col(id)); return true })
		ac := make([]int, 0, f.To.Len())
		f.To.Each(func(id attr.ID) bool { ac = append(ac, rel.Col(id)); return true })
		plans = append(plans, [2][]int{zc, ac})
	}
	tuples := rel.Tuples()
	var passes, equations int64
	if m := cmetrics.Load(); m != nil {
		m.instanceRuns.Inc()
		m.instanceRows.Observe(float64(len(tuples)))
		defer func() {
			m.instancePasses.Add(passes)
			m.instanceRowVisits.Add(passes * int64(len(tuples)))
			m.instanceEquations.Add(equations)
			if res.clash {
				m.instanceClashes.Inc()
			}
		}()
	}
	next := make([]int, len(tuples))
	for {
		changed := false
		for _, p := range plans {
			if err := b.Step(int64(len(tuples))); err != nil {
				return nil, err
			}
			passes++
			zc, ac := p[0], p[1]
			// Bucket rows by the hash of their resolved Z values; one
			// chain entry per distinct resolved Z (collisions verified).
			bt := newBucketTable(len(tuples))
			for ti, t := range tuples {
				h := uint64(hashSeed)
				for _, c := range zc {
					h = hashVal(h, uint64(res.Find(t[c])))
				}
				h = hashMix(h)
				rep := -1
				for j := bt.get(h); j >= 0; j = next[j] {
					if sameResolved(tuples[j], t, zc, res) {
						rep = j
						break
					}
				}
				if rep < 0 {
					next[ti] = bt.put(h, ti)
					continue
				}
				prev := tuples[rep]
				for _, c := range ac {
					if res.union(prev[c], t[c]) {
						changed = true
						equations++
					}
					if res.clash {
						return res, nil
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	res.rel = canonicalize(rel, res)
	return res, nil
}

// sameResolved reports whether two rows agree on the given columns after
// resolving through the chase's union-find.
func sameResolved(a, b relation.Tuple, cols []int, res *Result) bool {
	for _, c := range cols {
		if res.Find(a[c]) != res.Find(b[c]) {
			return false
		}
	}
	return true
}

// InstanceSortBased chases rel with fds using the literal algorithm of the
// paper's Corollary to Theorem 3: repeatedly sort by the FD's left-hand
// side, locate the first adjacent violating pair, and substitute one
// symbol for the other throughout the relation. Semantics are identical to
// Instance; it exists for the A1 ablation.
func InstanceSortBased(rel *relation.Relation, fds []dep.FD) *Result {
	res := &Result{parent: make(map[value.Value]value.Value)}
	// Working copy of tuples we substitute into.
	work := make([]relation.Tuple, rel.Len())
	rel.Each(func(i int, t relation.Tuple) bool {
		work[i] = t.Clone()
		return true
	})
	type plan struct{ zc, ac []int }
	plans := make([]plan, 0, len(fds))
	for _, f := range fds {
		var p plan
		f.From.Each(func(id attr.ID) bool { p.zc = append(p.zc, rel.Col(id)); return true })
		f.To.Each(func(id attr.ID) bool { p.ac = append(p.ac, rel.Col(id)); return true })
		plans = append(plans, p)
	}
	substitute := func(from, to value.Value) {
		for _, t := range work {
			for c := range t {
				if t[c] == from {
					t[c] = to
				}
			}
		}
	}
	//constvet:allow budgetloop -- A1 ablation runs deliberately unbudgeted; every pass merges at least one value class, so passes are bounded by the number of distinct values
	for {
		changed := false
		for _, p := range plans {
			//constvet:allow budgetloop -- same bound as the outer pass loop
			for {
				// Sort lexicographically by the Z columns.
				relation.SortTuplesBy(work, p.zc)
				// First adjacent violating pair.
				fired := false
				for i := 1; i < len(work) && !fired; i++ {
					mu, nu := work[i-1], work[i]
					eq := true
					for _, c := range p.zc {
						if mu[c] != nu[c] {
							eq = false
							break
						}
					}
					if !eq {
						continue
					}
					for _, c := range p.ac {
						if mu[c] == nu[c] {
							continue
						}
						a, b := mu[c], nu[c]
						if !res.union(a, b) && res.clash {
							return res
						}
						// Substitute the non-representative throughout.
						rep := res.Find(a)
						other := b
						if rep == b {
							other = a
						}
						substitute(other, rep)
						fired, changed = true, true
						break
					}
				}
				if !fired {
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	out := relation.New(rel.Attrs())
	for _, t := range work {
		out.Insert(t)
	}
	res.rel = out
	return res
}

// canonicalize rewrites rel's tuples with representatives and dedups.
func canonicalize(rel *relation.Relation, res *Result) *relation.Relation {
	out := relation.New(rel.Attrs())
	rel.Each(func(_ int, t relation.Tuple) bool {
		nt := make(relation.Tuple, len(t))
		for i, v := range t {
			nt[i] = res.Find(v)
		}
		out.Insert(nt)
		return true
	})
	return out
}
