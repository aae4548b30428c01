package constcomp

// One testing.B benchmark per experiment of DESIGN.md's index (E1–E16,
// A1–A3). cmd/experiments prints the full parameter-sweep tables; these
// benches give the per-operation micro-measurements at a representative
// size, runnable with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/axioms"
	"github.com/constcomp/constcomp/internal/bs"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/logic"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/reductions"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// BenchE1Complementary measures the Theorem 1 complementarity test on a
// random 16-attribute FD schema.
func BenchmarkE1Complementary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("A%02d", i)
	}
	u := attr.MustUniverse(names...)
	sigma := dep.NewSet(u)
	for _, f := range workload.RandomFDs(u, rng, 16) {
		sigma.Add(f)
	}
	s := core.MustSchema(u, sigma)
	x := u.MustSet("A00", "A01", "A02", "A03", "A04", "A05", "A06", "A07")
	y := x.Complement().With(0).With(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Complementary(s, x, y)
	}
}

func BenchmarkE2ComplementTestWide(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("U=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("A%03d", i)
			}
			u := attr.MustUniverse(names...)
			sigma := dep.NewSet(u)
			for _, f := range workload.RandomFDs(u, rng, n) {
				sigma.Add(f)
			}
			s := core.MustSchema(u, sigma)
			x := u.Empty()
			for i := 0; i < n/2; i++ {
				x = x.With(attr.ID(i))
			}
			y := x.Complement().With(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Complementary(s, x, y)
			}
		})
	}
}

func BenchmarkE3MinimalComplement(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("A%02d", i)
	}
	u := attr.MustUniverse(names...)
	sigma := dep.NewSet(u)
	for _, f := range workload.RandomFDs(u, rng, 24) {
		sigma.Add(f)
	}
	s := core.MustSchema(u, sigma)
	x := u.Empty()
	for i := 0; i < 12; i++ {
		x = x.With(attr.ID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MinimalComplement(s, x)
	}
}

func BenchmarkE4MinimumComplement(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	phi := logic.Random3CNF(rng, 3, 4)
	red, err := reductions.BuildTheorem2(phi)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MinimumComplement(red.Schema, red.X)
	}
}

// insertFixture builds the chain workload at |V| = n.
func insertFixture(n int) (*core.Pair, *relation.Relation, relation.Tuple) {
	c := workload.NewChain(6, 3)
	p := core.MustPair(c.Schema, c.X, c.Y)
	return p, c.ViewInstance(n), c.InsertTuple(n)
}

func BenchmarkE5InsertExact(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			p, v, t := insertFixture(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := p.DecideInsert(v, t)
				if err != nil || !d.Translatable {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}

func BenchmarkE6ApplyInsert(b *testing.B) {
	e := workload.NewEDM()
	p := core.MustPair(e.Schema, e.ED, e.DM)
	db := e.Instance(1024, 64)
	t := e.NewEmployeeTuple("newbie", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ApplyInsert(db, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5InsertDelta measures the session decide path with
// delta-driven incremental maintenance on, holding |Δ| = 1 while the
// instance grows. The headline of the incremental layer: ns/op should
// stay roughly flat across the V sweep, where the stateless
// BenchmarkE5InsertExact grows linearly. Each iteration decides a
// distinct op (fresh employee name) so the decision cache never hits
// and every sample exercises the index-probed incremental decide.
func BenchmarkE5InsertDelta(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			e := workload.NewEDM()
			pair := core.MustPair(e.Schema, e.ED, e.DM)
			sess, err := core.NewSession(pair, e.Instance(n, 16))
			if err != nil {
				b.Fatal(err)
			}
			// Pre-intern the op tuples (decide-only: version never
			// moves, so distinct tuples are what defeat the cache) and
			// pay the one-time incremental state build before timing.
			ops := make([]core.UpdateOp, b.N)
			for i := range ops {
				ops[i] = core.Insert(e.NewEmployeeTuple(fmt.Sprintf("delta%d", i), i%16))
			}
			if _, err := sess.Decide(core.Insert(e.NewEmployeeTuple("warmup", 0))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := sess.Decide(ops[i])
				if err != nil || !d.Translatable {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}

// BenchmarkApplyDeltaVsFull measures durable mixed batches (4 inserts
// + 4 deletes per group commit, net-zero size) through a store session
// with the incremental path on and off, across growing instances. The
// instance grows in both dimensions (V/16 departments of 16 employees)
// so the chase component touched by a delete — one department, whose
// padded M-nulls D→M merges into one class — stays constant-size: the
// incremental claim is cost ∝ |Δ| plus the affected component, never
// the instance. The inc=on rows should stay roughly flat in ns/op as V
// grows; inc=off re-projects and re-verifies the whole instance per op.
func BenchmarkApplyDeltaVsFull(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		for _, inc := range []bool{true, false} {
			b.Run(fmt.Sprintf("V=%d/inc=%v", n, inc), func(b *testing.B) {
				e := workload.NewEDM()
				pair := core.MustPair(e.Schema, e.ED, e.DM)
				st, err := store.Create(store.NewMemFS(), pair, e.Instance(n, n/16), e.Syms,
					store.Options{SnapshotEvery: 1 << 30})
				if err != nil {
					b.Fatal(err)
				}
				st.SetIncremental(inc)
				ctx := context.Background()
				batches := make([][]store.BatchOp, b.N)
				for i := range batches {
					batch := make([]store.BatchOp, 0, 8)
					for j := 0; j < 4; j++ {
						t := e.NewEmployeeTuple(fmt.Sprintf("d%d_%d", i, j), j)
						batch = append(batch, store.BatchOp{Ctx: ctx, Op: core.Insert(t)})
					}
					for j := 0; j < 4; j++ {
						t := e.NewEmployeeTuple(fmt.Sprintf("d%d_%d", i, j), j)
						batch = append(batch, store.BatchOp{Ctx: ctx, Op: core.Delete(t)})
					}
					batches[i] = batch
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					items, err := st.ApplyOpsCtx(store.Ops(batches[i]))
					if err != nil {
						b.Fatal(err)
					}
					for _, it := range items {
						if it.Err != nil {
							b.Fatal(it.Err)
						}
					}
				}
			})
		}
	}
}

func BenchmarkE7Test1(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			p, v, t := insertFixture(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.DecideInsertTest1(v, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE8Test2(b *testing.B) {
	p, v, t := insertFixture(256)
	good, err := p.IsGoodComplement()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("goodness-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.IsGoodComplement(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.DecideInsertTest2Known(v, t, good); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE9SuccinctInsert(b *testing.B) {
	g := logic.MustCNF(5,
		logic.Clause{1, -2, 3},
		logic.Clause{2, -3, 4},
		logic.Clause{3, -4, 5},
	)
	red, err := reductions.BuildTheorem4(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := core.NewPair(red.Schema, red.X, red.Y)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("expand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			red.View.Expand()
		}
	})
	v := red.View.Expand()
	b.Run("decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pair.DecideInsert(v, red.T); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE10SuccinctTest1(b *testing.B) {
	g := logic.MustCNF(7,
		logic.Clause{-1, 2, -3},
		logic.Clause{-2, 3, -4},
		logic.Clause{-3, 4, -5},
		logic.Clause{-4, 5, -6},
		logic.Clause{-5, 6, -7},
	)
	red, err := reductions.BuildTheorem5(g)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := core.NewPair(red.Schema, red.X, red.Y)
	if err != nil {
		b.Fatal(err)
	}
	v := red.View.Expand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pair.DecideInsertTest1(v, red.T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11FindComplement(b *testing.B) {
	e := workload.NewEDM()
	v := e.ViewInstance(256, 32)
	t := e.NewEmployeeTuple("waldo", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FindInsertComplement(e.Schema, e.ED, v, t, core.TestExact); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12SuccinctFind(b *testing.B) {
	g := logic.MustCNF(4,
		logic.Clause{1, 2, 3},
		logic.Clause{2, 3, 4},
	)
	red, err := reductions.BuildTheorem7(g)
	if err != nil {
		b.Fatal(err)
	}
	v := red.View.Expand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FindInsertComplement(red.Schema, red.X, v, red.T, core.TestExact); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13Delete(b *testing.B) {
	e := workload.NewEDM()
	p := core.MustPair(e.Schema, e.ED, e.DM)
	v := e.ViewInstance(1024, 1024) // worst case: full scan
	t := v.Tuple(0).Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DecideDelete(v, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14Replace(b *testing.B) {
	p, v, t2 := insertFixture(256)
	t1 := v.Tuple(0).Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DecideReplace(v, t1, t2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15EFD(b *testing.B) {
	u := attr.MustUniverse("A", "B", "C", "D", "E")
	sigma := dep.MustParseSet(u, "A =>e B\nB =>e C\nC -> D\nD =>e E")
	s := core.MustSchema(u, sigma)
	target := dep.NewEFD(u.MustSet("A"), u.MustSet("C"))
	b.Run("implies", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ImpliesEFD(s, target)
		}
	})
	x, y := u.MustSet("A", "B", "C"), u.MustSet("C", "D")
	b.Run("thm10-complementary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Complementary(s, x, y)
		}
	})
}

func BenchmarkE16Morphism(b *testing.B) {
	var states []string
	for a := 0; a < 8; a++ {
		for c := 0; c < 8; c++ {
			states = append(states, fmt.Sprintf("%d,%d", a, c))
		}
	}
	sp := bs.NewSpace(states...)
	v := bs.View[string, string](func(s string) string { return s[:1] })
	w := bs.View[string, string](func(s string) string { return s[2:] })
	tr, err := bs.NewTranslator(sp, v, w)
	if err != nil {
		b.Fatal(err)
	}
	u1 := bs.Update[string](func(a string) string {
		return string(rune('0' + (int(a[0]-'0')+1)%8))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.CheckMorphism(u1, u1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17Axioms(b *testing.B) {
	u := attr.MustUniverse("A", "B", "C", "D", "E")
	sigma := dep.MustParseSet(u, "A -> B\nB =>e C\nC -> D\nD =>e E")
	p := axioms.NewProver(sigma)
	goal := dep.NewFD(u.MustSet("A"), u.MustSet("E"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, ok := p.ProveFD(goal)
		if !ok {
			b.Fatal("underivable")
		}
		if err := p.Verify(proof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1ChaseImpl(b *testing.B) {
	c := workload.NewChain(6, 3)
	fds := c.Schema.Sigma().SplitFDs()
	u := c.Schema.Universe()
	v := c.ViewInstance(256)
	var gen value.NullGen
	padded := relation.New(u.All())
	for _, t := range v.Tuples() {
		nt := make(relation.Tuple, u.Size())
		for col := 0; col < u.Size(); col++ {
			if vc := v.Col(attr.ID(col)); vc >= 0 {
				nt[col] = t[vc]
			} else {
				nt[col] = gen.Fresh()
			}
		}
		padded.Insert(nt)
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chase.Instance(padded, fds)
		}
	})
	b.Run("sort-paper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chase.InstanceSortBased(padded, fds)
		}
	})
}

func BenchmarkA2MVDInference(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	u := attr.MustUniverse("A", "B", "C", "D", "E", "F")
	sigma := dep.NewSet(u)
	for _, f := range workload.RandomFDs(u, rng, 4) {
		sigma.Add(f)
	}
	m := dep.NewMVD(u.MustSet("A", "B"), u.MustSet("C", "D"))
	b.Run("dependency-basis", func(b *testing.B) {
		fds := sigma.FDs()
		for i := 0; i < b.N; i++ {
			chase.FDOnlyImpliesMVD(fds, m)
		}
	})
	b.Run("tableau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chase.ImpliesMVD(sigma, m)
		}
	})
}

func BenchmarkA4DependencyBasis(b *testing.B) {
	u := attr.MustUniverse("A", "B", "C", "D", "E", "F")
	sigma := dep.MustParseSet(u, "A -> B\nA ->> C\nC D -> E\nB ->> D")
	m := dep.NewMVD(u.MustSet("A"), u.MustSet("C", "E"))
	b.Run("basis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chase.BasisImpliesMVD(sigma, m)
		}
	})
	b.Run("tableau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chase.ImpliesMVD(sigma, m)
		}
	})
}

// BenchmarkA5ImposeStrategy compares the two imposition engines on the
// full-path insert decide. The top-level rows decide on insertFixture,
// whose decide imposes nothing (one chase call); the impose/* rows
// decide on imposeFixture at V=128, where Theorem 3's condition (c)
// imposes candidate equalities (a warm-up checks ChaseCalls > 1).
func BenchmarkA5ImposeStrategy(b *testing.B) {
	p, v, t := insertFixture(256)
	run := func(b *testing.B, p *core.Pair, v *relation.Relation, t relation.Tuple, s core.ImposeStrategy, impose bool) {
		p.SetImposeStrategy(s)
		defer p.SetImposeStrategy(core.ImposeIncremental)
		if d, err := p.DecideInsert(v, t); err != nil || !d.Translatable || impose && d.ChaseCalls <= 1 {
			b.Fatalf("warm-up decide: %+v, %v", d, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d, err := p.DecideInsert(v, t); err != nil || !d.Translatable {
				b.Fatal("unexpected verdict")
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, p, v, t, core.ImposeIncremental, false) })
	b.Run("rebuild", func(b *testing.B) { run(b, p, v, t, core.ImposeRebuild, false) })
	ip, db, name := imposeFixture(16, 8)
	iv := db.Project(ip.ViewAttrs())
	it := relation.Tuple{name("a", 0), name("fresh", 0), name("c", 0)}
	b.Run("impose/incremental", func(b *testing.B) { run(b, ip, iv, it, core.ImposeIncremental, true) })
	b.Run("impose/rebuild", func(b *testing.B) { run(b, ip, iv, it, core.ImposeRebuild, true) })
}

func BenchmarkA3Join(b *testing.B) {
	e := workload.NewEDM()
	db := e.Instance(4096, 256)
	vy := db.Project(e.DM)
	tx := relation.Singleton(e.ED, e.NewEmployeeTuple("probe", 0))
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx.JoinWith(vy, relation.HashJoin)
		}
	})
	b.Run("sort-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx.JoinWith(vy, relation.SortMergeJoin)
		}
	})
}

// --- Kernel micro-benchmarks ---
//
// These track the relational-kernel perf trajectory across PRs (make
// bench writes them to BENCH.json). Unlike E1–E16 they measure
// single engine operations, so allocation counts are meaningful.

func BenchmarkRelInsert100k(b *testing.B) {
	const n, w = 100000, 4
	rng := rand.New(rand.NewSource(7))
	u := attr.MustUniverse("A", "B", "C", "D")
	tuples := workload.BulkTuples(rng, n, w, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := relation.New(u.All())
		for _, t := range tuples {
			r.Insert(t)
		}
	}
}

func BenchmarkRelContains(b *testing.B) {
	const n, w = 100000, 4
	rng := rand.New(rand.NewSource(8))
	u := attr.MustUniverse("A", "B", "C", "D")
	tuples := workload.BulkTuples(rng, n, w, 1<<20)
	r := relation.New(u.All())
	for _, t := range tuples {
		r.Insert(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Contains(tuples[i%n]) {
			b.Fatal("missing tuple")
		}
	}
}

func BenchmarkRelProject(b *testing.B) {
	const n, w = 100000, 6
	rng := rand.New(rand.NewSource(9))
	u := attr.MustUniverse("A", "B", "C", "D", "E", "F")
	tuples := workload.BulkTuples(rng, n, w, 64)
	r := relation.New(u.All())
	for _, t := range tuples {
		r.Insert(t)
	}
	onto := u.MustSet("B", "D", "F")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Project(onto)
	}
}

func BenchmarkRelUnionDiff(b *testing.B) {
	const n, w = 50000, 4
	rng := rand.New(rand.NewSource(10))
	u := attr.MustUniverse("A", "B", "C", "D")
	mk := func() *relation.Relation {
		r := relation.New(u.All())
		for _, t := range workload.BulkTuples(rng, n, w, 1<<16) {
			r.Insert(t)
		}
		return r
	}
	r, s := mk(), mk()
	b.Run("union", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Union(s)
		}
	})
	b.Run("diff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Diff(s)
		}
	})
}

func BenchmarkRelChaseInstance(b *testing.B) {
	c := workload.NewChain(6, 3)
	fds := c.Schema.Sigma().SplitFDs()
	u := c.Schema.Universe()
	v := c.ViewInstance(1024)
	var gen value.NullGen
	padded := relation.New(u.All())
	for _, t := range v.Tuples() {
		nt := make(relation.Tuple, u.Size())
		for col := 0; col < u.Size(); col++ {
			if vc := v.Col(attr.ID(col)); vc >= 0 {
				nt[col] = t[vc]
			} else {
				nt[col] = gen.Fresh()
			}
		}
		padded.Insert(nt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chase.Instance(padded, fds)
	}
}

// BenchmarkMaintainedRemoveWideGroup measures chase.Maintained.RemoveRow
// in one wide Z-key group: the EDM padding shape (E→D, D→M), where
// every row shares one department, so the whole group is one connected
// component. An iteration removes a row and adds a fresh one, keeping
// the group at g rows; should the fixpoint report itself Wasteful it is
// rebuilt off the clock, as the incremental session would. Every
// removal takes the detach path, one branch per victim: victim=oldest
// removes the row whose null roots the M class and whose entry files
// the department, so the root is re-picked and the bucket refiled;
// victim=random removes any other member, which only leaves its class.
// The fresh row takes the victim's E constant, dead once RemoveRow
// returns, so the timed loop interns nothing and no two live rows share
// an E.
func BenchmarkMaintainedRemoveWideGroup(b *testing.B) {
	e := workload.NewEDM()
	fds := e.Schema.Sigma().SplitFDs()
	plans := chase.PlanFDs(relation.New(e.Schema.Universe().All()), fds)
	dept := e.Syms.Const("wide-dept")
	var gen value.NullGen
	next := 0
	row := func() relation.Tuple {
		next++
		return relation.Tuple{e.Syms.Const(fmt.Sprintf("wide-emp%d", next)), dept, gen.Fresh()}
	}
	build := func(rows []relation.Tuple) (*chase.Maintained, []int) {
		m := chase.NewMaintained(plans)
		ids := make([]int, len(rows))
		for i, r := range rows {
			ids[i] = m.AddRow(r)
		}
		return m, ids
	}
	for _, victim := range []string{"oldest", "random"} {
		for _, g := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("victim=%s/group=%d", victim, g), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				rows := make([]relation.Tuple, g)
				for i := range rows {
					rows[i] = row()
				}
				m, ids := build(rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// ids and rows run oldest first.
					k := 0
					if victim == "random" {
						k = 1 + rng.Intn(g-1)
					}
					m.RemoveRow(ids[k])
					r := relation.Tuple{rows[k][0], dept, gen.Fresh()}
					copy(ids[k:], ids[k+1:])
					copy(rows[k:], rows[k+1:])
					ids[g-1], rows[g-1] = m.AddRow(r), r
					if m.Wasteful() {
						b.StopTimer()
						m, ids = build(rows)
						b.StartTimer()
					}
				}
			})
		}
	}
}

// imposeFixture is a schema whose insert decide imposes: U = ABCDE,
// Σ = {C→D, C→E, AD→E}, view ABC, complement CDE. The instance puts
// each of k A values in each of g C groups, so an insert of (a, fresh
// b, c0) has an AD→E candidate in each group. In each of the g−1 other
// groups, imposing its D class equal to c0's makes the rows sharing an
// A value across the two groups equate their E classes, so every
// candidate chase succeeds. The decide thus makes g−1 non-trivial
// impositions, each revisiting the 2k rows of two groups. name interns
// attr+i in the fixture's symbol table.
func imposeFixture(k, g int) (*core.Pair, *relation.Relation, func(attr string, i int) value.Value) {
	u := attr.MustUniverse("A", "B", "C", "D", "E")
	s := core.MustSchema(u, dep.MustParseSet(u, "C -> D\nC -> E\nA D -> E"))
	pair := core.MustPair(s, u.MustSet("A", "B", "C"), u.MustSet("C", "D", "E"))
	syms := value.NewSymbols()
	name := func(attr string, i int) value.Value { return syms.Const(fmt.Sprintf("%s%d", attr, i)) }
	db := relation.New(u.All())
	for a := 0; a < k; a++ {
		for c := 0; c < g; c++ {
			db.Insert(relation.Tuple{name("a", a), name("b", a*g+c), name("c", c), name("d", c), name("e", c)})
		}
	}
	return pair, db, name
}

// BenchmarkMaintainedImposeDecide measures a Session's incremental
// insert decide where condition (c) imposes candidate equalities on the
// maintained padding through Maintained.WithEqualities, the path every
// other decide row skips (their candidates need no imposition), on
// imposeFixture. Each iteration decides a distinct op (fresh B), so the
// decision cache never hits.
func BenchmarkMaintainedImposeDecide(b *testing.B) {
	for _, g := range []int{8, 32} {
		const k = 16
		b.Run(fmt.Sprintf("V=%d", k*g), func(b *testing.B) {
			pair, db, name := imposeFixture(k, g)
			sess, err := core.NewSession(pair, db)
			if err != nil {
				b.Fatal(err)
			}
			ops := make([]core.UpdateOp, b.N+1)
			for i := range ops {
				ops[i] = core.Insert(relation.Tuple{name("a", i%k), name("fresh", i), name("c", 0)})
			}
			// The warm-up pays the incremental state build and checks the
			// shape: translatable, imposing, and on the delta path.
			reg := obs.NewRegistry()
			core.SetMetrics(reg)
			d, err := sess.Decide(ops[b.N])
			core.SetMetrics(nil)
			if err != nil || !d.Translatable || d.ChaseCalls < g-1 {
				b.Fatalf("warm-up decide: %+v, %v; want translatable with at least %d chase calls", d, err, g-1)
			}
			if n := reg.Snapshot().Counters["core_inc_fallback_total"]; n != 0 {
				b.Fatalf("warm-up decide fell back to the full path")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d, err := sess.Decide(ops[i]); err != nil || !d.Translatable {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}

// BenchmarkRelJoin100k joins two 100k-tuple relations sharing two
// attributes, serially and with the partitioned parallel kernel, to
// record the Parallelism knob's effect at scale.
func BenchmarkRelJoin100k(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(11))
	ur := attr.MustUniverse("A", "B", "C", "D")
	rset, _ := ur.ParseSet("A B C")
	sset, _ := ur.ParseSet("B C D")
	mkRel := func(set attr.Set) *relation.Relation {
		r := relation.New(set)
		for _, t := range workload.BulkTuples(rng, n, 3, 512) {
			r.Insert(t)
		}
		return r
	}
	r, s := mkRel(rset), mkRel(sset)
	for _, nw := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			relation.Parallelism(nw)
			defer relation.Parallelism(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Join(s)
			}
		})
	}
}

// benchStoreFixture builds the EDM durable-session fixture for the
// store benchmarks.
func benchStoreFixture() (*core.Pair, *relation.Relation, *value.Symbols) {
	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := core.MustSchema(u, sigma)
	pair := core.MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < 4; i++ {
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", i%2)),
			syms.Const(fmt.Sprintf("mgr%d", i%2)),
		})
	}
	return pair, db, syms
}

// BenchmarkStoreJournalAppend measures the full durable-apply path —
// decide, apply, encode, journal write, fsync — against an in-memory
// FS. Each iteration inserts and deletes one employee so the database
// stays a constant size; the employees cycle through a pool interned
// before the timer starts, so the loop measures no symbol-table growth.
func BenchmarkStoreJournalAppend(b *testing.B) {
	pair, db, syms := benchStoreFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]value.Value, 64)
	for i := range names {
		names[i] = syms.Const(fmt.Sprintf("t%d", i))
	}
	dept := syms.Const("dept0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		if _, err := st.Apply(core.Insert(relation.Tuple{name, dept})); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Apply(core.Delete(relation.Tuple{name, dept})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecoverReplay measures recovery of a 1000-record
// journal onto its snapshot, including the invariant re-verification.
func BenchmarkStoreRecoverReplay(b *testing.B) {
	pair, db, syms := benchStoreFixture()
	mem := store.NewMemFS()
	st, err := store.Create(mem, pair, db, syms, store.Options{SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		name := syms.Const(fmt.Sprintf("t%d", i))
		dept := syms.Const("dept0")
		if _, err := st.Apply(core.Insert(relation.Tuple{name, dept})); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Apply(core.Delete(relation.Tuple{name, dept})); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.Recover(mem, pair, value.NewSymbols(), store.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScanJournal isolates the record decoder as Recover runs
// it before replay: checksum verification plus a structure check of
// each op payload, interning nothing, over a 1000-record image.
func BenchmarkStoreScanJournal(b *testing.B) {
	syms := value.NewSymbols()
	dept := syms.Const("dept0")
	var img []byte
	for i := 0; i < 1000; i++ {
		rec, err := store.EncodeOp(uint64(i+1), core.Insert(relation.Tuple{syms.Const(fmt.Sprintf("emp%d", i)), dept}), syms)
		if err != nil {
			b.Fatal(err)
		}
		img = append(img, rec...)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		good, err := store.ScanJournal(img, func(uint64, []byte) error { n++; return nil })
		if n != 1000 || err != nil || good != int64(len(img)) {
			b.Fatal("bad scan")
		}
	}
}

// BenchmarkStoreSnapshotEncode isolates the checkpoint encoder: one
// snapshot image of a 4096-employee, 1024-department instance (the
// benchmark's pipe-large shape), constants rendered by name.
func BenchmarkStoreSnapshotEncode(b *testing.B) {
	e := workload.NewEDM()
	db := e.Instance(4096, 1024)
	img, err := store.EncodeSnapshot(1, db, e.Syms)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.EncodeSnapshot(uint64(i), db, e.Syms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSnapshotDecode is the recovery side of
// StoreSnapshotEncode: one DecodeSnapshot of that EDM(4096, 1024)
// image into fresh Symbols, as Recover loads its floor.
func BenchmarkStoreSnapshotDecode(b *testing.B) {
	e := workload.NewEDM()
	db := e.Instance(4096, 1024)
	img, err := store.EncodeSnapshot(1, db, e.Syms)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, got, err := store.DecodeSnapshot(img, db.Universe(), value.NewSymbols()); err != nil || got.Len() != db.Len() {
			b.Fatalf("decode: %v", err)
		}
	}
}

// BenchmarkStoreCheckpoint names the checkpoint layer: over the
// net-durable workload's base instance, EDM(256, 64), SnapshotEvery 1
// makes every iteration one durable op — decide, apply, journal write
// and fsync — plus one checkpoint: encode the database, overwrite a
// snapshot slot in place, fsync it, reset the journal. Each iteration
// inserts or deletes one employee, so the database stays within one row
// of its base size. fs=mem measures the encoder and the store's own
// work; fs=dir is fsync-bound and, like PipelineOpsPerSec/fs=dir, not
// gated.
func BenchmarkStoreCheckpoint(b *testing.B) {
	for _, fsName := range []string{"mem", "dir"} {
		b.Run("fs="+fsName, func(b *testing.B) {
			e := workload.NewEDM()
			pair := core.MustPair(e.Schema, e.ED, e.DM)
			var fs store.FS = store.NewMemFS()
			if fsName == "dir" {
				dfs, err := store.NewDirFS(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				fs = dfs
			}
			st, err := store.Create(fs, pair, e.Instance(256, 64), e.Syms, store.Options{SnapshotEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			names := make([]relation.Tuple, 64)
			for i := range names {
				names[i] = e.NewEmployeeTuple(fmt.Sprintf("ckpt%d", i), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := core.Insert(names[i/2%len(names)])
				if i%2 == 1 {
					op = core.Delete(op.Tuple)
				}
				if _, err := st.Apply(op); err != nil {
					b.Fatal(err)
				}
				if err := st.SnapshotErr(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineOpsPerSec measures journaled update throughput
// through the serve pipeline at several group-commit batch sizes, on
// both the in-memory FS and a real directory (where fsync cost
// dominates). batch=1 is the per-op-fsync baseline; the ratio of
// batch=32 to batch=1 on fs=dir is the headline group-commit win. Each
// op alternates insert/delete of one employee so the database stays a
// constant size and every decision is translatable.
func BenchmarkPipelineOpsPerSec(b *testing.B) {
	for _, fsName := range []string{"mem", "dir"} {
		for _, batch := range []int{1, 8, 32, 128} {
			b.Run(fmt.Sprintf("fs=%s/batch=%d", fsName, batch), func(b *testing.B) {
				pair, db, syms := benchStoreFixture()
				var fs store.FS
				if fsName == "mem" {
					fs = store.NewMemFS()
				} else {
					dfs, err := store.NewDirFS(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					fs = dfs
				}
				st, err := store.Create(fs, pair, db, syms, store.Options{SnapshotEvery: 1 << 30})
				if err != nil {
					b.Fatal(err)
				}
				pipe, err := serve.New(st, serve.Options{MaxBatch: batch})
				if err != nil {
					b.Fatal(err)
				}
				defer pipe.Close()

				// Pre-intern every name: Symbols is not safe for
				// concurrent interning and the committer goroutine reads
				// interned constants while we submit.
				names := make([]relation.Tuple, b.N)
				dept := syms.Const("dept0")
				for i := range names {
					names[i] = relation.Tuple{syms.Const(fmt.Sprintf("t%d", i/2)), dept}
				}

				// Sliding async window: keep enough requests in flight
				// to fill batches without an artificial barrier. The
				// window is shifted in place, so it never outgrows its
				// 4×batch slots and an acked Pending is dropped at once.
				window := make([]*serve.Pending, 0, 4*batch)
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := core.Insert(names[i])
					if i%2 == 1 {
						op = core.Delete(names[i])
					}
					pend, err := pipe.ApplyAsync(ctx, op)
					if err != nil {
						b.Fatal(err)
					}
					if len(window) == cap(window) {
						if _, err := window[0].Wait(); err != nil {
							b.Fatal(err)
						}
						window = append(window[:0], window[1:]...)
					}
					window = append(window, pend)
				}
				for _, pend := range window {
					if _, err := pend.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
			})
		}
	}
}

// BenchmarkViewPublish measures what publishing the view after every
// batch costs as the view grows: a MemFS pipeline over the wide
// instance at 1k, 4k and 16k rows, 32-op batches of insert/delete
// pairs, and a read of Published() after each batch. The session hands
// the published image to readers and copies it before the next batch
// changes it, so ns/op stays flat across sizes only if that copy costs
// O(|batch|), not O(|view|).
func BenchmarkViewPublish(b *testing.B) {
	const batch = 32
	for _, rows := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("rows=%dk", rows>>10), func(b *testing.B) {
			pair, db, syms := benchWideFixture(rows)
			st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			pipe, err := serve.New(st, serve.Options{MaxBatch: batch})
			if err != nil {
				b.Fatal(err)
			}
			defer pipe.Close()
			// Pre-intern every name (Symbols is not safe for concurrent
			// interning), and warm the incremental decide state.
			names := make([]relation.Tuple, b.N+1)
			dept := syms.Const("dept0")
			for i := range names {
				names[i] = relation.Tuple{syms.Const(fmt.Sprintf("t%d", i/2)), dept}
			}
			if _, err := pipe.Apply(core.Insert(names[b.N])); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			window := make([]*serve.Pending, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := core.Insert(names[i])
				if i%2 == 1 {
					op = core.Delete(names[i])
				}
				pend, err := pipe.ApplyAsync(ctx, op)
				if err != nil {
					b.Fatal(err)
				}
				window = append(window, pend)
				if len(window) == batch || i == b.N-1 {
					for _, p := range window {
						if _, err := p.Wait(); err != nil {
							b.Fatal(err)
						}
					}
					window = window[:0]
					if v, _, _ := pipe.Published(); v.Len() < rows {
						b.Fatalf("published view has %d rows, want ≥ %d", v.Len(), rows)
					}
				}
			}
		})
	}
}

// benchWideFixture is benchStoreFixture at scale: n employees over n/2
// two-person departments (plus dept0, which the workload churns).
// Department equality classes stay O(1), so the chase never blows up;
// what grows with n is the session's decide state — the maintained
// padding an insert decide completes against.
func benchWideFixture(n int) (*core.Pair, *relation.Relation, *value.Symbols) {
	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := core.MustSchema(u, sigma)
	pair := core.MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < n; i++ {
		// The first 64 employees all join dept0, the department the
		// workload churns: without dept0 sharers the benchmark ops
		// would be rejected as untranslatable.
		d := 0
		if i >= 64 {
			d = i / 2
		}
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", d)),
			syms.Const(fmt.Sprintf("mgr%d", d)),
		})
	}
	return pair, db, syms
}

// BenchmarkNetServe measures the serving stack end to end: HTTP submit
// requests through internal/netserve into a self-healing pipeline over
// a MemFS store, on a keepalive connection. One benchmark op is one
// view update; each request carries a 16-op batch of op frames
// (alternating insert/delete so the view stays bounded). Client-observed
// ops/sec and per-request p99 land beside ns/op in the report.
func BenchmarkNetServe(b *testing.B) {
	const perReq = 16
	b.Run(fmt.Sprintf("encode=frame/batch=%d", perReq), func(b *testing.B) {
		pair, db, syms := benchStoreFixture()
		st, err := store.Create(store.NewMemFS(), pair, db, syms,
			store.Options{SnapshotEvery: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		srv := netserve.NewServer(netserve.Options{})
		if err := srv.AddView("ed", st, syms, serve.Options{MaxBatch: 64}); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			_ = srv.Close()
		}()
		url := ts.URL + "/v1/views/ed/submit"

		// Pre-encode every request body outside the timed loop: the
		// benchmark measures the server, not the client's encoder.
		nReq := (b.N + perReq - 1) / perReq
		bodies := make([][]byte, nReq)
		for r := range bodies {
			var body []byte
			for j := 0; j < perReq; j++ {
				i := r*perReq + j
				op := netserve.WireOp{Kind: netserve.KindInsert,
					Tuple: []string{fmt.Sprintf("t%d", i/2), "dept0"}}
				if i%2 == 1 {
					op.Kind = netserve.KindDelete
				}
				if body, err = netserve.AppendOpFrame(body, op); err != nil {
					b.Fatal(err)
				}
			}
			bodies[r] = body
		}

		lat := obs.NewRegistry().Histogram("req_ns")
		client := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for _, body := range bodies {
			t0 := obs.NowNS()
			resp, err := client.Post(url, netserve.ContentTypeFrame, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("submit status %d", resp.StatusCode)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			lat.ObserveDuration(obs.NowNS() - t0)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		b.ReportMetric(lat.Quantile(0.99), "p99-req-ns")
	})
}
