package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// edmFixture is the paper's §2 Employee–Department–Manager schema with
// view X = ED under constant complement Y = DM, two departments with
// two permanent employees each.
func edmFixture() (*core.Pair, *relation.Relation, *value.Symbols) {
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

// namedOp is an update op expressed with constant names, so the same
// workload can be materialized against sessions with independent
// symbol tables.
type namedOp struct {
	kind  core.UpdateKind
	tuple []string
	with  []string
}

func (n namedOp) op(syms *value.Symbols) core.UpdateOp {
	mk := func(names []string) relation.Tuple {
		t := make(relation.Tuple, len(names))
		for i, s := range names {
			t[i] = syms.Const(s)
		}
		return t
	}
	switch n.kind {
	case core.UpdateInsert:
		return core.Insert(mk(n.tuple))
	case core.UpdateDelete:
		return core.Delete(mk(n.tuple))
	default:
		return core.Replace(mk(n.tuple), mk(n.with))
	}
}

// randomWorkload generates n ops mixing translatable and untranslatable
// inserts, deletes, and replaces, deterministically from seed. It makes
// no attempt to predict outcomes — the point of the equivalence test is
// that serial and pipelined runs agree op by op, whatever the verdicts.
func randomWorkload(seed int64, n int) []namedOp {
	rng := rand.New(rand.NewSource(seed))
	emp := func(i int) string { return fmt.Sprintf("w%03d", i) }
	dept := func(i int) string { return fmt.Sprintf("dept%d", i%2) }
	ops := make([]namedOp, 0, n)
	for i := 0; i < n; i++ {
		e := emp(rng.Intn(40))
		d := dept(rng.Intn(2))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			// Insert: fresh employees translate; an employee already in
			// the other department trips E→D.
			ops = append(ops, namedOp{kind: core.UpdateInsert, tuple: []string{e, d}})
		case 5, 6, 7:
			// Delete: absent tuples are identity translations; present
			// ones translate unless they strand their department.
			ops = append(ops, namedOp{kind: core.UpdateDelete, tuple: []string{e, d}})
		case 8:
			// Replace across departments.
			ops = append(ops, namedOp{kind: core.UpdateReplace,
				tuple: []string{e, d}, with: []string{e, dept(rng.Intn(2) + 1)}})
		default:
			// Insert into a department that does not exist yet:
			// condition (a) rejection.
			ops = append(ops, namedOp{kind: core.UpdateInsert,
				tuple: []string{e, fmt.Sprintf("newdept%d", rng.Intn(3))}})
		}
	}
	return ops
}

// outcome is the observable fate of one op, rendered symbol-table-free.
type outcome struct {
	applied      bool
	translatable bool
	reason       string
	errKind      string // "", "rejected", or the error text
}

func outcomeOf(d *core.Decision, err error) outcome {
	var o outcome
	switch {
	case err == nil:
		o.applied = true
	case errors.Is(err, core.ErrRejected):
		o.errKind = "rejected"
	default:
		o.errKind = err.Error()
	}
	if d != nil {
		o.translatable = d.Translatable
		o.reason = d.Reason.String()
	}
	return o
}

// render canonicalizes a relation for comparison across symbol tables.
func render(r *relation.Relation, syms *value.Symbols) string {
	lines := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		fields := make([]string, len(t))
		for i, v := range t {
			fields[i] = syms.Name(v)
		}
		lines = append(lines, strings.Join(fields, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPipelineEquivalenceRandomized is the acceptance test for decide
// purity through the pipeline: a 1000-op randomized workload submitted
// through the pipeline in randomized async windows must produce, op for
// op and in order, the same verdicts, reasons, and final database as a
// serial in-memory session applying the same ops.
func TestPipelineEquivalenceRandomized(t *testing.T) {
	const nOps = 1000
	workload := randomWorkload(7, nOps)

	// Serial reference: a plain core session.
	pair, db, syms := edmFixture()
	serial, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]outcome, nOps)
	for i, n := range workload {
		d, err := serial.Apply(n.op(syms))
		want[i] = outcomeOf(d, err)
	}
	wantDB := render(serial.Database(), syms)

	// Pipelined run: same ops, same order, submitted in async windows
	// of randomized width so they share batches.
	pair2, db2, syms2 := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair2, db2, syms2, store.Options{SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	got := make([]outcome, nOps)
	for start := 0; start < nOps; {
		width := 1 + rng.Intn(48)
		if start+width > nOps {
			width = nOps - start
		}
		pends := make([]*Pending, width)
		for j := 0; j < width; j++ {
			p, err := pipe.ApplyAsync(context.Background(), workload[start+j].op(syms2))
			if err != nil {
				t.Fatalf("op %d: enqueue: %v", start+j, err)
			}
			pends[j] = p
		}
		for j, p := range pends {
			d, err := p.Wait()
			got[start+j] = outcomeOf(d, err)
		}
		start += width
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d (%v %v): pipeline outcome %+v, serial outcome %+v",
				i, workload[i].kind, workload[i].tuple, got[i], want[i])
		}
	}
	if gotDB := render(st.Database(), syms2); gotDB != wantDB {
		t.Errorf("final database diverged:\n%s\nwant:\n%s", gotDB, wantDB)
	}
}

// TestPipelineConcurrentSubmitters hammers the pipeline from many
// goroutines (run under -race). Each submitter inserts its own disjoint
// employees, so every op is translatable regardless of interleaving and
// the final state is order-independent.
func TestPipelineConcurrentSubmitters(t *testing.T) {
	const (
		submitters = 8
		perSub     = 25
	)
	pair, db, syms := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 16, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Intern every constant up front: Symbols is not safe for concurrent
	// interning, and the pipeline only reads.
	tuples := make([][]relation.Tuple, submitters)
	for g := range tuples {
		tuples[g] = make([]relation.Tuple, perSub)
		for i := range tuples[g] {
			tuples[g][i] = relation.Tuple{
				syms.Const(fmt.Sprintf("g%d_e%d", g, i)),
				syms.Const(fmt.Sprintf("dept%d", i%2)),
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSub)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				if _, err := pipe.Apply(core.Insert(tuples[g][i])); err != nil {
					errs <- fmt.Errorf("submitter %d op %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != submitters*perSub {
		t.Errorf("Seq = %d, want %d", st.Seq(), submitters*perSub)
	}
	view := st.View()
	for g := range tuples {
		for _, tup := range tuples[g] {
			if !view.Contains(tup) {
				t.Fatalf("concurrent insert %v missing from the view", tup)
			}
		}
	}
}

// TestPipelineCloseDrains: ops accepted before Close are decided,
// durable, and acknowledged; ops submitted after Close are refused.
func TestPipelineCloseDrains(t *testing.T) {
	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	st, err := store.Create(mem, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	pends := make([]*Pending, n)
	for i := 0; i < n; i++ {
		tup := relation.Tuple{syms.Const(fmt.Sprintf("d%02d", i)), syms.Const("dept0")}
		if pends[i], err = pipe.ApplyAsync(context.Background(), core.Insert(tup)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pends {
		if _, err := p.Wait(); err != nil {
			t.Errorf("accepted op %d failed across Close: %v", i, err)
		}
	}
	if _, err := pipe.Apply(core.Insert(relation.Tuple{syms.Const("late"), syms.Const("dept0")})); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close submit error = %v, want ErrClosed", err)
	}
	if err := pipe.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if st.Seq() != n {
		t.Errorf("Seq = %d, want %d", st.Seq(), n)
	}
}

// TestPendingWaitFromSeveralGoroutines: a Pending is the queued request
// itself, written by the committer when it acknowledges; several
// goroutines may Wait on it at once, before and after the ack, and all
// see the same fate.
func TestPendingWaitFromSeveralGoroutines(t *testing.T) {
	pair, db, syms := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	const n, waiters = 16, 3
	pends := make([]*Pending, n)
	for i := range pends {
		tup := relation.Tuple{syms.Const(fmt.Sprintf("w%02d", i)), syms.Const("dept0")}
		if pends[i], err = pipe.ApplyAsync(context.Background(), core.Insert(tup)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	got := make([][waiters]*core.Decision, n)
	var wg sync.WaitGroup
	for i, p := range pends {
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := p.Wait()
				if err != nil || d == nil || !d.Translatable {
					t.Errorf("op %d waiter %d: %+v, %v", i, w, d, err)
				}
				got[i][w] = d
			}()
		}
	}
	wg.Wait()
	for i, p := range pends {
		d, _ := p.Wait()
		for w := 0; w < waiters; w++ {
			if got[i][w] != d {
				t.Errorf("op %d: waiter %d saw a different decision", i, w)
			}
		}
	}
}

// TestPipelinePublishesFromNew: the read side holds the session's view
// from New on, and the first read after acked ops shows them — whether
// or not anyone read before the ops ran.
func TestPipelinePublishesFromNew(t *testing.T) {
	open := func(t *testing.T) (*Pipeline, *value.Symbols, string, uint64) {
		pair, db, syms := edmFixture()
		st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply(core.Insert(relation.Tuple{syms.Const("pre"), syms.Const("dept1")})); err != nil {
			t.Fatal(err)
		}
		want, seq := render(st.View(), syms), st.Seq()
		pipe, err := New(st, Options{MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = pipe.Close() })
		return pipe, syms, want, seq
	}
	ins := func(t *testing.T, pipe *Pipeline, syms *value.Symbols, names ...string) {
		for _, n := range names {
			if _, err := pipe.Apply(core.Insert(relation.Tuple{syms.Const(n), syms.Const("dept0")})); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("read-at-new", func(t *testing.T) {
		pipe, syms, want, seq := open(t)
		v, got, degraded := pipe.Published()
		if v == nil {
			t.Fatal("no view published at New")
		}
		if got != seq || render(v, syms) != want || degraded {
			t.Fatalf("published at New: seq %d degraded %v view\n%s\nwant seq %d view\n%s",
				got, degraded, render(v, syms), seq, want)
		}
		ins(t, pipe, syms, "a", "b")
		v, got, _ = pipe.Published()
		if got != seq+2 || !v.Contains(relation.Tuple{syms.Const("b"), syms.Const("dept0")}) {
			t.Fatalf("read after acks: seq %d, view\n%s", got, render(v, syms))
		}
	})
	t.Run("first-read-after-acks", func(t *testing.T) {
		pipe, syms, _, seq := open(t)
		ins(t, pipe, syms, "a", "b", "c")
		v, got, _ := pipe.Published()
		if v == nil || got != seq+3 {
			t.Fatalf("first read after 3 acks: seq %d, want %d", got, seq+3)
		}
		for _, n := range []string{"a", "b", "c"} {
			if !v.Contains(relation.Tuple{syms.Const(n), syms.Const("dept0")}) {
				t.Errorf("first read after its ack misses %s", n)
			}
		}
	})
}

// TestPipelinePublishedUnderConcurrentWrites: readers walk published
// views while the committer applies ops. A published view must never
// change under its reader — the session clones its image before the
// next op changes it — and seqs must not go backwards. Run with -race,
// which reports a committer write to a view a reader holds.
func TestPipelinePublishedUnderConcurrentWrites(t *testing.T) {
	pair, db, syms := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, seq, _ := pipe.Published()
				if seq < last {
					t.Errorf("published seq went back from %d to %d", last, seq)
					return
				}
				last = seq
				if a, b := render(v, syms), render(v, syms); a != b {
					t.Errorf("published view at seq %d changed while read", seq)
					return
				}
			}
		}()
	}
	held, _, _ := pipe.Published()
	want := render(held, syms)
	for i := 0; i < 200; i++ {
		tup := relation.Tuple{syms.Const(fmt.Sprintf("c%02d", i%20)), syms.Const(fmt.Sprintf("dept%d", i%2))}
		op := core.Insert(tup)
		if i%3 == 2 {
			op = core.Delete(tup)
		}
		if _, err := pipe.Apply(op); err != nil && !errors.Is(err, core.ErrRejected) {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if render(held, syms) != want {
		t.Error("view published at New changed under later ops")
	}
}

// TestPipelinePublishedCOWReaders: readers Clone, Sorted, Contains and
// Tuples published views large enough for Clone to share their storage,
// and mutate their clones, while the committer applies batches. The published image
// shares its chunks with the session's next image and with every
// reader's clone, so any missed copy-on-write shows up as a view that
// changes under its reader, or as a data race under -race.
func TestPipelinePublishedCOWReaders(t *testing.T) {
	pair, _, syms := edmFixture()
	db := relation.New(pair.Schema().Universe().All())
	for i := 0; i < 3000; i++ {
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", i%10)),
			syms.Const(fmt.Sprintf("mgr%d", i%10)),
		})
	}
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Intern every constant up front: Symbols is not safe for
	// concurrent interning.
	ops := make([]relation.Tuple, 40)
	for i := range ops {
		ops[i] = relation.Tuple{syms.Const(fmt.Sprintf("c%02d", i)), syms.Const(fmt.Sprintf("dept%d", i%10))}
	}
	extras := make([]relation.Tuple, 4)
	for g := range extras {
		extras[g] = relation.Tuple{syms.Const(fmt.Sprintf("reader%d", g)), syms.Const("dept0")}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				v, seq, _ := pipe.Published()
				rows := v.Sorted(v.Attrs())
				c := v.Clone()
				extra := extras[g]
				c.Insert(extra)
				c.Delete(rows[n%len(rows)])
				if len(v.Tuples()) != len(rows) || v.Contains(extra) || !v.Contains(rows[n%len(rows)]) {
					t.Errorf("reader %d: published view at seq %d changed under its clone", g, seq)
					return
				}
				again := v.Clone().Sorted(v.Attrs())
				for i := range rows {
					if !rows[i].Equal(again[i]) {
						t.Errorf("reader %d: published view at seq %d changed while read", g, seq)
						return
					}
				}
			}
		}(g)
	}
	var pend []*Pending
	for i := 0; i < 400; i++ {
		op := core.Insert(ops[i%len(ops)])
		if (i/len(ops))%2 == 1 {
			op = core.Delete(ops[i%len(ops)])
		}
		p, err := pipe.ApplyAsync(context.Background(), op)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for _, p := range pend {
		if d, err := p.Wait(); err != nil || !d.Translatable {
			t.Fatalf("op rejected: %v (%+v)", err, d)
		}
	}
	close(stop)
	wg.Wait()
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineBrokenStore: a journal fault mid-stream breaks the store
// session; affected submitters get ErrSessionBroken, later submissions
// fail fast, and Close surfaces the error.
func TestPipelineBrokenStore(t *testing.T) {
	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{
		Match:      func(name string) bool { return name == store.JournalFile },
		FailSyncAt: 2,
	})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(e string) relation.Tuple {
		return relation.Tuple{syms.Const(e), syms.Const("dept0")}
	}
	if _, err := pipe.Apply(core.Insert(tup("ok1"))); err != nil {
		t.Fatalf("first op: %v", err)
	}
	// Second journal fsync fails: this op must come back broken.
	if _, err := pipe.Apply(core.Insert(tup("boom"))); !errors.Is(err, store.ErrSessionBroken) {
		t.Fatalf("faulted op error = %v, want ErrSessionBroken", err)
	}
	// And so must everything after it, without touching the store.
	if _, err := pipe.Apply(core.Insert(tup("after"))); !errors.Is(err, store.ErrSessionBroken) {
		t.Fatalf("post-fault op error = %v, want ErrSessionBroken", err)
	}
	if err := pipe.Close(); err == nil {
		t.Error("Close did not surface the broken session")
	}
}

// TestPipelineContextCancelledInQueue: an op whose context dies while
// queued fails with the context error and never reaches the store.
func TestPipelineContextCancelledInQueue(t *testing.T) {
	pair, db, syms := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pipe.ApplyCtx(ctx, core.Insert(relation.Tuple{syms.Const("zed"), syms.Const("dept0")}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled op error = %v, want context.Canceled", err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != 0 {
		t.Errorf("cancelled op reached the journal: Seq = %d", st.Seq())
	}
}

// TestPipelineShippedPathStaysOnDelta pins the configuration viewsrv
// ships — default serve options over a store with default options, on a
// 2048-row EDM instance — to the delta path: once warm, every committed
// op is decided exactly once and applied per-delta, nothing falls back
// to the full translate, and no op pays an O(instance) FD scan.
func TestPipelineShippedPathStaysOnDelta(t *testing.T) {
	reg := obs.NewRegistry()
	core.SetMetrics(reg)
	relation.SetMetrics(reg)
	SetMetrics(reg)
	defer core.SetMetrics(nil)
	defer relation.SetMetrics(nil)
	defer SetMetrics(nil)

	e := workload.NewEDM()
	pair := core.MustPair(e.Schema, e.ED, e.DM)
	const emps, depts = 2048, 512
	st, err := store.Create(store.NewMemFS(), pair, e.Instance(emps, depts), e.Syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A client-side model keeps every op translatable: inserts and
	// replacements into departments that exist, deletions only of
	// employees whose department keeps another member.
	members := map[int][]string{}
	for i := 0; i < emps; i++ {
		members[i%depts] = append(members[i%depts], fmt.Sprintf("emp%d", i))
	}
	rng := rand.New(rand.NewSource(5))
	next := 0
	fresh := func() string { next++; return fmt.Sprintf("new%d", next) }
	drop := func(d int, name string) {
		ms := members[d]
		for i, m := range ms {
			if m == name {
				members[d] = append(ms[:i], ms[i+1:]...)
				return
			}
		}
	}
	pick := func() (string, int) {
		for {
			d := rng.Intn(depts)
			if ms := members[d]; len(ms) > 1 {
				return ms[rng.Intn(len(ms))], d
			}
		}
	}
	nextOp := func() core.UpdateOp {
		switch rng.Intn(3) {
		case 0:
			name, d := fresh(), rng.Intn(depts)
			members[d] = append(members[d], name)
			return core.Insert(e.NewEmployeeTuple(name, d))
		case 1:
			name, d := pick()
			drop(d, name)
			return core.Delete(e.NewEmployeeTuple(name, d))
		default:
			name, d := pick()
			drop(d, name)
			nw, nd := fresh(), rng.Intn(depts)
			members[nd] = append(members[nd], nw)
			return core.Replace(e.NewEmployeeTuple(name, d), e.NewEmployeeTuple(nw, nd))
		}
	}
	run := func(n int) {
		t.Helper()
		pends := make([]*Pending, 0, n)
		for i := 0; i < n; i++ {
			p, err := pipe.ApplyAsync(context.Background(), nextOp())
			if err != nil {
				t.Fatal(err)
			}
			pends = append(pends, p)
		}
		for i, p := range pends {
			if d, err := p.Wait(); err != nil || d.Reason == core.ReasonIdentity {
				t.Fatalf("op %d: decision %+v, err %v; the model keeps every op a translatable change", i, d, err)
			}
		}
	}
	run(64) // warm-up: builds the maintained delta state once
	before := reg.Snapshot().Counters
	const n = 600
	run(n)
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters
	moved := func(name string) int64 { return after[name] - before[name] }
	if got := moved("serve_ops_committed_total"); got != n {
		t.Fatalf("serve_ops_committed_total moved %d, want %d", got, n)
	}
	if got := moved("core_inc_apply_total"); got != n {
		t.Errorf("core_inc_apply_total moved %d, want %d: every committed op must apply per-delta", got, n)
	}
	if got := moved("core_inc_fallback_total"); got != 0 {
		t.Errorf("core_inc_fallback_total moved %d, want 0", got)
	}
	if got := moved("relation_fdscan_tuples_total"); got != 0 {
		t.Errorf("relation_fdscan_tuples_total moved %d, want 0: a committed op paid an O(instance) legality scan", got)
	}
	if got := moved("core_decide_total"); got != n {
		t.Errorf("core_decide_total moved %d, want %d: each op is decided exactly once", got, n)
	}
}

// gateCtx parks the first Err call made on it until release closes,
// after signalling reached: the committer's first Err call on a request
// is its admission check, made after the request left the queue.
type gateCtx struct {
	context.Context
	once             sync.Once
	reached, release chan struct{}
}

func (g *gateCtx) Err() error {
	g.once.Do(func() {
		close(g.reached)
		<-g.release
	})
	return g.Context.Err()
}

// TestPipelineLateArrivalsJoinBatch pins the committer's late joins:
// ops queued while the batch ahead of them is being decided join that
// batch's write and fsync instead of waiting for the next one.
func TestPipelineLateArrivalsJoinBatch(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	pair, db, syms := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(e string) core.UpdateOp {
		return core.Insert(relation.Tuple{syms.Const(e), syms.Const("dept0")})
	}
	bg := context.Background()
	gate := &gateCtx{Context: bg, reached: make(chan struct{}), release: make(chan struct{})}
	a, err := pipe.ApplyAsync(gate, ins("ann"))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.reached // the committer drained a batch of one and is admitting it
	var ws []*Pending
	for _, e := range []string{"bob", "cid"} {
		w, err := pipe.ApplyAsync(bg, ins(e))
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	close(gate.release)
	for _, w := range append([]*Pending{a}, ws...) {
		if _, err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != 3 {
		t.Errorf("Seq = %d, want 3", st.Seq())
	}
	if got := reg.Counter("serve_batches_total").Value(); got != 1 {
		t.Errorf("serve_batches_total = %d, want 1 (bob and cid joined ann's batch)", got)
	}
}
