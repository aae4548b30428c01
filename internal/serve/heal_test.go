package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"github.com/constcomp/constcomp/internal/budget"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

func journalMatch(name string) bool { return name == store.JournalFile }

func readFileBytes(t *testing.T, fsys store.FS, name string) []byte {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return b
}

// recoverOn builds the standard Resurrect closure tests use: replay
// recovery over fsys with the same pair and symbol table.
func recoverOn(fsys store.FS, pair *core.Pair, syms *value.Symbols) func() (*store.Session, error) {
	return func() (*store.Session, error) {
		ns, _, err := store.Recover(fsys, pair, syms, store.Options{SnapshotEvery: 1 << 20})
		return ns, err
	}
}

// TestPipelineResurrectsAfterSyncFault is the basic self-healing path:
// a journal fsync fault breaks the session mid-workload, the committer
// resurrects it, and every op — including the one whose fsync failed —
// is acknowledged successfully. The faulted op's record was written but
// not synced; recovery replays it from the page-cache image and
// re-fsyncs, so it is durable without being re-journaled.
func TestPipelineResurrectsAfterSyncFault(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 2})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(st, Options{
		MaxBatch:  1,
		Resurrect: recoverOn(ffs, pair, syms),
		Clock:     obs.NewManualClock(),
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(e string) relation.Tuple {
		return relation.Tuple{syms.Const(e), syms.Const("dept0")}
	}
	names := []string{"ok1", "boom", "after1", "after2"}
	for _, n := range names {
		if _, err := pipe.Apply(core.Insert(tup(n))); err != nil {
			t.Fatalf("op %s: %v", n, err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close after healing: %v", err)
	}
	if !ffs.Tripped() {
		t.Fatal("fault never fired; test exercised nothing")
	}
	snap := reg.Snapshot()
	if snap.Counters["serve_resurrections_total"] != 1 {
		t.Errorf("resurrections = %v, want 1", snap.Counters["serve_resurrections_total"])
	}
	// Every acked op survives byte-identically: the serial oracle over
	// the same ops must equal both the live state and a fresh recovery.
	oracle, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := oracle.Apply(core.Insert(tup(n))); err != nil {
			t.Fatalf("oracle %s: %v", n, err)
		}
	}
	live := pipe.Store()
	if got, want := render(live.Database(), syms), render(oracle.Database(), syms); got != want {
		t.Fatalf("healed state diverged from oracle:\n%s\nwant:\n%s", got, want)
	}
	if live.Seq() != uint64(len(names)) {
		t.Fatalf("Seq = %d, want %d", live.Seq(), len(names))
	}
	live.Close()
	mem.Crash()
	rec, _, err := store.Recover(mem, pair, value.NewSymbols(), store.Options{})
	if err != nil {
		t.Fatalf("post-crash recovery: %v", err)
	}
	if rec.Seq() != uint64(len(names)) {
		t.Fatalf("post-crash Seq = %d, want %d: an acked op was not durable", rec.Seq(), len(names))
	}
}

// TestPipelineResurrectsAfterPowerLoss is the harder healing path: the
// fsync fault is followed by a power cut, so the faulted batch's bytes
// are really gone. The un-acked suffix must be re-journaled and
// re-fsynced on the fresh session — and still acknowledged successfully.
func TestPipelineResurrectsAfterPowerLoss(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 2})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	resurrect := func() (*store.Session, error) {
		mem.Crash() // the fault was a real power event: unsynced bytes are gone
		ns, _, err := store.Recover(mem, pair, syms, store.Options{SnapshotEvery: 1 << 20})
		return ns, err
	}
	clk := obs.NewManualClock()
	pipe, err := New(st, Options{MaxBatch: 1, Resurrect: resurrect, Clock: clk, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(e string) relation.Tuple {
		return relation.Tuple{syms.Const(e), syms.Const("dept0")}
	}
	names := []string{"ok1", "boom", "after1"}
	for _, n := range names {
		if _, err := pipe.Apply(core.Insert(tup(n))); err != nil {
			t.Fatalf("op %s: %v", n, err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close after healing: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve_resurrections_total"] != 1 {
		t.Errorf("resurrections = %v, want 1", snap.Counters["serve_resurrections_total"])
	}
	if snap.Counters["serve_retries_total"] == 0 {
		t.Error("power loss dropped the batch, yet nothing was re-journaled")
	}
	if len(clk.SleepLog()) == 0 {
		t.Error("healing slept zero times; backoff path not exercised")
	}
	live := pipe.Store()
	if live.Seq() != uint64(len(names)) {
		t.Fatalf("Seq = %d, want %d", live.Seq(), len(names))
	}
	got := render(live.Database(), syms)
	oracle, _ := core.NewSession(pair, db)
	for _, n := range names {
		if _, err := oracle.Apply(core.Insert(tup(n))); err != nil {
			t.Fatal(err)
		}
	}
	if want := render(oracle.Database(), syms); got != want {
		t.Fatalf("healed state diverged from oracle:\n%s\nwant:\n%s", got, want)
	}
}

// TestPipelineResurrectExhaustionLatches: when every resurrection
// attempt fails transiently, the pipeline must stop after
// resurrectRetries backoff sleeps, latch broken, and fail pending and
// future submitters — degraded, but never hung.
func TestPipelineResurrectExhaustionLatches(t *testing.T) {
	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 1})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	clk := obs.NewManualClock()
	pipe, err := New(st, Options{
		MaxBatch:  1,
		Resurrect: func() (*store.Session, error) { attempts++; return nil, store.ErrInjected },
		Clock:     clk,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tup := relation.Tuple{syms.Const("x"), syms.Const("dept0")}
	if _, err := pipe.Apply(core.Insert(tup)); !errors.Is(err, store.ErrSessionBroken) {
		t.Fatalf("op after exhausted healing = %v, want ErrSessionBroken", err)
	}
	if attempts != resurrectRetries {
		t.Fatalf("resurrection attempts = %d, want %d", attempts, resurrectRetries)
	}
	if got := len(clk.SleepLog()); got != resurrectRetries {
		t.Fatalf("backoff sleeps = %d, want %d", got, resurrectRetries)
	}
	if !pipe.Degraded() {
		t.Error("latched pipeline must report degraded")
	}
	if _, err := pipe.Apply(core.Insert(tup)); !errors.Is(err, store.ErrSessionBroken) {
		t.Fatalf("post-latch op = %v, want ErrSessionBroken", err)
	}
	if err := pipe.Close(); err == nil {
		t.Error("Close did not surface the latched error")
	}
}

// TestPipelinePermanentCauseSkipsResurrection: a permanent cause (here
// tagged explicitly) must not trigger resurrection at all — retrying
// what cannot succeed only delays the verdict.
func TestPipelinePermanentCauseSkipsResurrection(t *testing.T) {
	if got := store.Classify(store.Permanent(store.ErrInjected)); got != store.ClassPermanent {
		t.Fatalf("Permanent tag = %v", got)
	}
	// End-to-end: a resurrection that reports data loss latches
	// immediately instead of burning the remaining attempts.
	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 1})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	pipe, err := New(st, Options{
		MaxBatch: 1,
		Resurrect: func() (*store.Session, error) {
			attempts++
			return nil, store.ErrDataLoss
		},
		Clock: obs.NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tup := relation.Tuple{syms.Const("x"), syms.Const("dept0")}
	if _, err := pipe.Apply(core.Insert(tup)); !errors.Is(err, store.ErrDataLoss) {
		t.Fatalf("op error = %v, want ErrDataLoss surfaced", err)
	}
	if attempts != 1 {
		t.Fatalf("resurrection attempts = %d, want 1 (permanent cause must stop the loop)", attempts)
	}
	pipe.Close()
}

// TestPipelineShedOnFull: with bounded non-blocking admission and the
// committer provably stuck healing, a burst larger than the pipeline's
// total buffering must shed — and every non-shed op must still be
// acknowledged correctly once the store heals.
func TestPipelineShedOnFull(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 2})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	healing := make(chan struct{})
	release := make(chan struct{})
	resurrect := func() (*store.Session, error) {
		close(healing)
		<-release
		ns, _, err := store.Recover(ffs, pair, syms, store.Options{SnapshotEvery: 1 << 20})
		return ns, err
	}
	pipe, err := New(st, Options{
		MaxBatch:   1,
		QueueDepth: 2,
		ShedOnFull: true,
		Resurrect:  resurrect,
		Clock:      obs.NewManualClock(),
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(e string) relation.Tuple {
		return relation.Tuple{syms.Const(e), syms.Const("dept0")}
	}
	if _, err := pipe.Apply(core.Insert(tup("ok1"))); err != nil {
		t.Fatal(err)
	}
	// This op's fsync fails; the committer blocks inside Resurrect.
	boom, err := pipe.ApplyAsync(context.Background(), core.Insert(tup("boom")))
	if err != nil {
		t.Fatal(err)
	}
	<-healing
	// Total buffering while the committer is stuck: the queue (2). A
	// burst of 20 must shed at least 18, no matter how the goroutines
	// interleave.
	const burst = 20
	var pend []*Pending
	sheds := 0
	for i := 0; i < burst; i++ {
		h, err := pipe.ApplyAsync(context.Background(), core.Insert(tup(fmt.Sprintf("b%02d", i))))
		switch {
		case err == nil:
			pend = append(pend, h)
		case errors.Is(err, ErrShed):
			sheds++
		default:
			t.Fatalf("burst op %d: unexpected error %v", i, err)
		}
	}
	if sheds < burst-2 {
		t.Fatalf("sheds = %d, want >= %d", sheds, burst-2)
	}
	if !pipe.Degraded() {
		t.Error("pipeline must report degraded while healing")
	}
	close(release)
	if _, err := boom.Wait(); err != nil {
		t.Fatalf("faulted op after healing: %v", err)
	}
	for i, h := range pend {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("admitted burst op %d failed: %v", i, err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_shed_total"]; got != int64(sheds) {
		t.Errorf("serve_shed_total = %v, want %d", got, sheds)
	}
	if pipe.Degraded() {
		t.Error("healed pipeline must not stay degraded")
	}
	// Admitted ops all landed: 1 + boom + len(pend).
	if want := uint64(2 + len(pend)); pipe.Store().Seq() != want {
		t.Fatalf("Seq = %d, want %d", pipe.Store().Seq(), want)
	}
}

// TestPipelineDegradedView: the read path keeps serving the last
// committed materialized view while the store heals, flags itself
// degraded, and catches up after healing.
func TestPipelineDegradedView(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	pair, db, syms := edmFixture()
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 2})
	st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	healing := make(chan struct{})
	release := make(chan struct{})
	resurrect := func() (*store.Session, error) {
		close(healing)
		<-release
		ns, _, err := store.Recover(ffs, pair, syms, store.Options{SnapshotEvery: 1 << 20})
		return ns, err
	}
	pipe, err := New(st, Options{MaxBatch: 1, Resurrect: resurrect, Clock: obs.NewManualClock(), Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(e string) relation.Tuple {
		return relation.Tuple{syms.Const(e), syms.Const("dept0")}
	}
	// Commit one op; its batch publishes a view holding it.
	if _, err := pipe.Apply(core.Insert(tup("ok1"))); err != nil {
		t.Fatal(err)
	}
	v1, _, degraded := pipe.Published()
	if degraded {
		t.Fatal("healthy pipeline reported degraded")
	}
	if v1 == nil || !v1.Contains(tup("ok1")) {
		t.Fatal("published view missing committed op")
	}
	boom, err := pipe.ApplyAsync(context.Background(), core.Insert(tup("boom")))
	if err != nil {
		t.Fatal(err)
	}
	<-healing
	v2, _, degraded := pipe.Published()
	if !degraded {
		t.Error("View during healing must report degraded")
	}
	if v2 == nil || !v2.Contains(tup("ok1")) {
		t.Error("degraded View must keep serving the last committed view")
	}
	if v2.Contains(tup("boom")) {
		t.Error("degraded View leaked an uncommitted op")
	}
	close(release)
	if _, err := boom.Wait(); err != nil {
		t.Fatalf("faulted op after healing: %v", err)
	}
	v3, _, degraded := pipe.Published()
	if degraded {
		t.Error("healed pipeline must not stay degraded")
	}
	if v3 == nil || !v3.Contains(tup("boom")) {
		t.Error("post-heal view missing the healed op")
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if reg.Snapshot().Counters["serve_degraded_reads_total"] == 0 {
		t.Error("degraded reads were served but not counted")
	}
}

// TestPipelineBudgetTripRetries: a deterministic budget trip on an
// op's decide is transient; the committer retries it in place with
// backoff and the op succeeds without the submitter seeing the trip.
func TestPipelineBudgetTripRetries(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	pair, db, syms := edmFixture()
	st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Budgets guard the full decide path; the incremental fast path never
	// constructs one, so route decides through the chase.
	st.SetIncremental(false)
	clk := obs.NewManualClock()
	pipe, err := New(st, Options{MaxBatch: 1, Clock: clk, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// One-shot plan: the first budget built under this context gets a
	// 1-step allowance (trips immediately); every later one is unlimited.
	var fired atomic.Bool
	ctx := budget.ContextWithPlan(context.Background(), func() int64 {
		if fired.CompareAndSwap(false, true) {
			return 1
		}
		return 0
	})
	tup := relation.Tuple{syms.Const("x"), syms.Const("dept0")}
	if _, err := pipe.ApplyCtx(ctx, core.Insert(tup)); err != nil {
		t.Fatalf("budget-tripped op should heal via retry, got %v", err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve_retries_total"] == 0 {
		t.Error("budget trip did not register a retry")
	}
	if len(clk.SleepLog()) == 0 {
		t.Error("retry did not back off")
	}
	if !pipe.Store().Database().Contains(relation.Tuple{syms.Const("x"), syms.Const("dept0"), syms.Const("mgr0")}) {
		t.Error("retried op did not land")
	}
}

// TestPipelineBackoffDeterminism is the determinism satellite: the same
// seed and the same fault schedule reproduce the identical retry-sleep
// sequence AND the identical final journal bytes. Run under -race by
// `make race`.
func TestPipelineBackoffDeterminism(t *testing.T) {
	type run struct {
		sleeps  []int64
		journal []byte
		state   string
	}
	once := func(seed uint64) run {
		pair, db, syms := edmFixture()
		mem := store.NewMemFS()
		ffs := store.NewFaultFS(mem, store.FaultPlan{Match: journalMatch, FailSyncAt: 2})
		st, err := store.Create(ffs, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		resurrect := func() (*store.Session, error) {
			mem.Crash()
			ns, _, err := store.Recover(mem, pair, syms, store.Options{SnapshotEvery: 1 << 20})
			return ns, err
		}
		clk := obs.NewManualClock()
		pipe, err := New(st, Options{MaxBatch: 1, Resurrect: resurrect, Clock: clk, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"a", "b", "c", "d", "e"} {
			tup := relation.Tuple{syms.Const(n), syms.Const("dept0")}
			if _, err := pipe.Apply(core.Insert(tup)); err != nil {
				t.Fatalf("op %s: %v", n, err)
			}
		}
		if err := pipe.Close(); err != nil {
			t.Fatal(err)
		}
		state := render(pipe.Store().Database(), syms)
		pipe.Store().Close()
		return run{sleeps: clk.SleepLog(), journal: readFileBytes(t, mem, store.JournalFile), state: state}
	}
	r1, r2 := once(42), once(42)
	if len(r1.sleeps) == 0 {
		t.Fatal("schedule exercised no backoff sleeps")
	}
	if !slicesEqual(r1.sleeps, r2.sleeps) {
		t.Fatalf("same seed, different retry timings:\n%v\n%v", r1.sleeps, r2.sleeps)
	}
	if !bytes.Equal(r1.journal, r2.journal) {
		t.Fatal("same seed, different final journal bytes")
	}
	if r1.state != r2.state {
		t.Fatalf("same seed, different final state:\n%s\n%s", r1.state, r2.state)
	}
}

func slicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClassifyServeSentinels pins the serve-side taxonomy.
func TestClassifyServeSentinels(t *testing.T) {
	if Classify(ErrShed) != store.ClassTransient {
		t.Error("ErrShed must be transient")
	}
	if Classify(ErrClosed) != store.ClassPermanent {
		t.Error("ErrClosed must be permanent")
	}
	// Fallback to the store taxonomy.
	if Classify(store.ErrDataLoss) != store.ClassPermanent {
		t.Error("store fallback lost")
	}
	if Classify(fmt.Errorf("wrapped: %w", ErrShed)) != store.ClassTransient {
		t.Error("wrap must preserve class")
	}
}
