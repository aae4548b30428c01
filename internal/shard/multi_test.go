package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// shardFixture is the paper's EDM schema with nEmp employees
// alternating between two departments — enough rows that every shard
// holds both departments for small K.
func shardFixture(nEmp int) (*core.Pair, *relation.Relation, *value.Symbols) {
	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := core.MustSchema(u, sigma)
	pair := core.MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < nEmp; i++ {
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", i%2)),
			syms.Const(fmt.Sprintf("mgr%d", i%2)),
		})
	}
	return pair, db, syms
}

func shardFSs(base store.FS, k int) []store.FS {
	fss := make([]store.FS, k)
	for i := range fss {
		fss[i] = SubFS(base, fmt.Sprintf("s%d/", i))
	}
	return fss
}

func mustOpen(t *testing.T, fss []store.FS, pair *core.Pair, db *relation.Relation, syms *value.Symbols, opts Options) (*Multi, *Report) {
	t.Helper()
	m, rep, err := Open(fss, pair, db, syms, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// viewOf projects the base instance to the {E, D} view.
func viewOf(pair *core.Pair, db *relation.Relation) *relation.Relation {
	return db.Project(pair.ViewAttrs())
}

// deptCountOn counts view rows with department d living on shard k.
func deptCountOn(m *Multi, view *relation.Relation, k int, d value.Value) int {
	n := 0
	for _, row := range view.Tuples() {
		if row[1] == d && m.router.shardOfTuple(row) == k {
			n++
		}
	}
	return n
}

// waitView polls Published until it equals want: a cross-shard op is
// acked once its grants are released, before each shard's committer
// republishes, so an immediate read can see the prior view.
func waitView(t *testing.T, m *Multi, want *relation.Relation) {
	t.Helper()
	var got *relation.Relation
	for i := 0; i < 500; i++ {
		got, _, _ = m.Published()
		if got != nil && got.Equal(want) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	gl := -1
	if got != nil {
		gl = got.Len()
	}
	t.Fatalf("published view never converged: got %d rows, want %d", gl, want.Len())
}

// pickInserts returns n insert tuples whose decide succeeds per shard
// (the target shard already holds the tuple's department), updating
// view as it goes.
func pickInserts(t *testing.T, m *Multi, view *relation.Relation, n int, prefix string) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for i := 0; len(out) < n && i < 100*n+200; i++ {
		dv := m.syms.Const(fmt.Sprintf("dept%d", i%2))
		tup := relation.Tuple{m.syms.Const(fmt.Sprintf("%s%d", prefix, i)), dv}
		if deptCountOn(m, view, m.router.shardOfTuple(tup), dv) >= 1 {
			out = append(out, tup)
			view.Insert(tup)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d per-shard-translatable inserts", len(out), n)
	}
	return out
}

// findCrossOp searches the fixture for a replacement that moves a key
// between shards and is translatable on both sides: the coordinator
// keeps another row of the old tuple's department, and the participant
// already holds that department.
func findCrossOp(t *testing.T, m *Multi, pair *core.Pair, db *relation.Relation, syms *value.Symbols) (old, nw relation.Tuple, coord, part int) {
	t.Helper()
	view := viewOf(pair, db)
	for _, row := range view.Tuples() {
		c := m.router.shardOfTuple(row)
		if deptCountOn(m, view, c, row[1]) < 2 {
			continue // the delete half would be untranslatable
		}
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("mv%d", i)
			p := m.router.ShardOfName(name)
			if p == c || deptCountOn(m, view, p, row[1]) < 1 {
				continue
			}
			return row, relation.Tuple{syms.Const(name), row[1]}, c, p
		}
	}
	t.Fatal("no translatable cross-shard replacement found in fixture")
	return nil, nil, 0, 0
}

func assertTxLogsEmpty(t *testing.T, fss []store.FS) {
	t.Helper()
	for i, fsys := range fss {
		scan, err := ReadTxLog(fsys)
		if err != nil {
			t.Fatalf("shard %d txlog: %v", i, err)
		}
		if len(scan.Records) != 0 {
			t.Fatalf("shard %d txlog holds %d orphaned records", i, len(scan.Records))
		}
	}
}

func TestMultiSinglesAcrossShards(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 4)
	m, rep := mustOpen(t, fss, pair, db, syms, Options{Shards: 4})
	defer m.Close()
	if len(rep.Resolved) != 0 {
		t.Fatalf("fresh instance resolved %d intents", len(rep.Resolved))
	}

	ctx := context.Background()
	expected := viewOf(pair, db)
	for i, tup := range pickInserts(t, m, expected, 8, "new") {
		d, err := m.Apply(ctx, core.Insert(tup))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if !d.Translatable {
			t.Fatalf("insert %d rejected: %s", i, d.Reason)
		}
	}
	// Delete an employee whose shard keeps another row of its dept.
	var victim relation.Tuple
	for _, row := range expected.Tuples() {
		if deptCountOn(m, expected, m.router.shardOfTuple(row), row[1]) >= 2 {
			victim = row
			break
		}
	}
	if victim == nil {
		t.Fatal("no deletable employee in fixture")
	}
	if _, err := m.Apply(ctx, core.Delete(victim)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	expected.Delete(victim)

	waitView(t, m, expected)
	// Single-shard traffic never touches a txlog.
	assertTxLogsEmpty(t, fss)
}

func TestMultiCrossShardCommit(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 4)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 4})
	defer m.Close()

	old, nw, _, _ := findCrossOp(t, m, pair, db, syms)
	w, err := m.ApplyAsync(context.Background(), core.Replace(old, nw))
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := w.(*CrossPending)
	if !ok {
		t.Fatalf("cross-shard op returned %T, want *CrossPending", w)
	}
	if cp.Xid() == 0 {
		t.Fatal("cross pending carries zero xid")
	}
	d, err := cp.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Translatable || d.Reason != core.ReasonOK {
		t.Fatalf("cross replace decision: %+v", d)
	}

	expected := viewOf(pair, db)
	expected.Delete(old)
	expected.Insert(nw)
	waitView(t, m, expected)
	// The two-phase records are retired on success.
	assertTxLogsEmpty(t, fss)
}

func TestMultiCrossShardRejectionIsAtomic(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 4)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 4})
	defer m.Close()

	old, nw, _, _ := findCrossOp(t, m, pair, db, syms)
	// Poison the insert half: a department no shard has ever seen makes
	// it untranslatable (no shared match), so the whole op must abort
	// with zero bytes written anywhere.
	bad := relation.Tuple{nw[0], syms.Const("nodept")}
	_, err := m.Apply(context.Background(), core.Replace(old, bad))
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("poisoned cross replace: %v, want ErrRejected", err)
	}

	waitView(t, m, viewOf(pair, db))
	assertTxLogsEmpty(t, fss)
	// Both shards keep serving: the clean variant goes through.
	if _, err := m.Apply(context.Background(), core.Replace(old, nw)); err != nil {
		t.Fatalf("healthy cross replace after rejection: %v", err)
	}
}

func TestMultiCrossShardIdentity(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 4)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 4})
	defer m.Close()

	// Old tuple absent, new tuple already present, keys on different
	// shards: both halves are identities, so nothing may be written.
	view := viewOf(pair, db)
	var present, absent relation.Tuple
	for _, row := range view.Tuples() {
		for i := 0; i < 200 && absent == nil; i++ {
			name := fmt.Sprintf("ghost%d", i)
			if m.router.ShardOfName(name) != m.router.shardOfTuple(row) {
				absent = relation.Tuple{syms.Const(name), row[1]}
				present = row
			}
		}
		if absent != nil {
			break
		}
	}
	if absent == nil {
		t.Fatal("no cross-shard identity pair found")
	}
	_, seq0, _ := m.Published()
	d, err := m.Apply(context.Background(), core.Replace(absent, present))
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != core.ReasonIdentity {
		t.Fatalf("identity cross replace decided %s", d.Reason)
	}
	_, seq1, _ := m.Published()
	if seq1 != seq0 {
		t.Fatalf("identity cross replace advanced seq %d -> %d", seq0, seq1)
	}
	assertTxLogsEmpty(t, fss)
}

func TestMultiReopenPreservesState(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 2)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 2})

	ctx := context.Background()
	expected := viewOf(pair, db)
	for _, tup := range pickInserts(t, m, expected, 2, "new") {
		if _, err := m.Apply(ctx, core.Insert(tup)); err != nil {
			t.Fatal(err)
		}
	}
	old, nw, _, _ := findCrossOp(t, m, pair, db, syms)
	if _, err := m.Apply(ctx, core.Replace(old, nw)); err != nil {
		t.Fatal(err)
	}
	expected.Delete(old)
	expected.Insert(nw)
	waitView(t, m, expected)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rep := mustOpen(t, fss, pair, db, syms, Options{Shards: 2})
	defer m2.Close()
	if len(rep.Resolved) != 0 {
		t.Fatalf("clean reopen resolved %d intents", len(rep.Resolved))
	}
	waitView(t, m2, expected)
}

// crashHarness builds a durable 2-shard instance, closes it cleanly,
// and exposes what a scripted crash scenario needs to plant txlog
// records and journal state by hand.
type crashHarness struct {
	mem         *store.MemFS
	fss         []store.FS
	pair        *core.Pair
	db          *relation.Relation
	syms        *value.Symbols
	old         relation.Tuple // owned by coord
	nw          relation.Tuple // owned by part
	coord, part int
}

func newCrashHarness(t *testing.T) *crashHarness {
	t.Helper()
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 2)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 2})
	old, nw, coord, part := findCrossOp(t, m, pair, db, syms)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return &crashHarness{mem: mem, fss: fss, pair: pair, db: db, syms: syms,
		old: old, nw: nw, coord: coord, part: part}
}

func (h *crashHarness) intent(xid uint64) TxRecord {
	names := func(tup relation.Tuple) []string {
		out := make([]string, len(tup))
		for i, v := range tup {
			out[i] = h.syms.Name(v)
		}
		return out
	}
	return TxRecord{Xid: xid, Kind: txIntent, Coord: h.coord, Part: h.part,
		Old: names(h.old), New: names(h.nw)}
}

// plant writes shard k's txlog as the dying process left it: the first
// synced records are durable, the rest are eaten by the power cut.
func (h *crashHarness) plant(t *testing.T, k, synced int, recs ...[]byte) {
	t.Helper()
	l, err := createTxLog(h.fss[k])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.fss[k].SyncDir(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if err := l.write(rec); err != nil {
			t.Fatal(err)
		}
		if i == synced-1 {
			if err := l.f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// applyHalfDirect journals one half on shard k, fsynced, as the dying
// process's post-commit apply would have.
func (h *crashHarness) applyHalfDirect(t *testing.T, k int, op core.UpdateOp) {
	t.Helper()
	st, _, err := store.Recover(h.fss[k], h.pair, h.syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(op); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardCrashMatrix walks the crash points of the two-phase
// protocol: each case plants the txlog and journal state a power cut
// at that point leaves behind, and recovery must resolve it to
// all-or-nothing — never a half-applied cross-shard op — with no
// orphaned intents surviving.
func TestCrossShardCrashMatrix(t *testing.T) {
	const xid = 41
	cases := []struct {
		name      string
		setup     func(t *testing.T, h *crashHarness)
		committed bool
		// The halves recovery must redo.
		redoCoord, redoPart bool
	}{
		{
			name: "intent-participant-only",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 1, encodeIntent(h.intent(xid)))
			},
		},
		{
			name: "intent-both",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 1, encodeIntent(h.intent(xid)))
				h.plant(t, h.coord, 1, encodeIntent(h.intent(xid)))
			},
		},
		{
			name: "commit-unfsynced",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 1, encodeIntent(h.intent(xid)))
				// The commit record was written but its fsync never
				// finished: the power cut eats it, so the op aborted.
				h.plant(t, h.coord, 1, encodeIntent(h.intent(xid)), encodeMark(xid, txCommit))
			},
		},
		{
			name: "committed-no-halves",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 1, encodeIntent(h.intent(xid)))
				h.plant(t, h.coord, 2, encodeIntent(h.intent(xid)), encodeMark(xid, txCommit))
			},
			committed: true, redoCoord: true, redoPart: true,
		},
		{
			name: "committed-partial-coordinator-half",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 1, encodeIntent(h.intent(xid)))
				h.plant(t, h.coord, 2, encodeIntent(h.intent(xid)), encodeMark(xid, txCommit))
				h.applyHalfDirect(t, h.coord, core.Delete(h.old))
			},
			committed: true, redoCoord: false, redoPart: true,
		},
		{
			name: "committed-both-halves",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 1, encodeIntent(h.intent(xid)))
				h.plant(t, h.coord, 2, encodeIntent(h.intent(xid)), encodeMark(xid, txCommit))
				h.applyHalfDirect(t, h.coord, core.Delete(h.old))
				h.applyHalfDirect(t, h.part, core.Insert(h.nw))
			},
			committed: true, redoCoord: false, redoPart: false,
		},
		{
			name: "done-marks-suppress-redo",
			setup: func(t *testing.T, h *crashHarness) {
				h.plant(t, h.part, 2, encodeIntent(h.intent(xid)), encodeMark(xid, txDone))
				h.plant(t, h.coord, 3, encodeIntent(h.intent(xid)),
					encodeMark(xid, txCommit), encodeMark(xid, txDone))
				h.applyHalfDirect(t, h.coord, core.Delete(h.old))
				h.applyHalfDirect(t, h.part, core.Insert(h.nw))
			},
			committed: true, redoCoord: false, redoPart: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newCrashHarness(t)
			tc.setup(t, h)
			h.mem.Crash()
			m, rep, err := Open(h.fss, h.pair, h.db, h.syms, Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			if len(rep.Resolved) != 1 {
				t.Fatalf("resolved %d intents, want 1", len(rep.Resolved))
			}
			res := rep.Resolved[0]
			if res.Xid != xid || res.Committed != tc.committed ||
				res.RedoneCoord != tc.redoCoord || res.RedonePart != tc.redoPart {
				t.Fatalf("resolution %+v, want committed=%v redoCoord=%v redoPart=%v",
					res, tc.committed, tc.redoCoord, tc.redoPart)
			}

			// All-or-nothing: the view shows the full replace or none of it.
			want := viewOf(h.pair, h.db)
			if tc.committed {
				want.Delete(h.old)
				want.Insert(h.nw)
			}
			waitView(t, m, want)
			// No orphaned intents survive a recovery.
			assertTxLogsEmpty(t, h.fss)

			// Resolution is idempotent across a crash during recovery: a
			// second power cut and reopen changes nothing further.
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			h.mem.Crash()
			m2, rep2, err := Open(h.fss, h.pair, h.db, h.syms, Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if len(rep2.Resolved) != 0 {
				t.Fatalf("second recovery resolved %d intents", len(rep2.Resolved))
			}
			waitView(t, m2, want)
		})
	}
}

// failFS wraps a shard FS with persistent, re-armable txlog faults —
// failure modes FaultPlan's one-shot counters cannot model. Sync
// faults skip the first skipSyncs txlog fsyncs, then fail the next
// failSyncs of them.
type failFS struct {
	store.FS
	mu           sync.Mutex
	skipSyncs    int
	failSyncs    int
	failTruncate bool
}

func (f *failFS) arm(skip, fail int, failTrunc bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.skipSyncs, f.failSyncs, f.failTruncate = skip, fail, failTrunc
}

func (f *failFS) takeSyncFault() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.skipSyncs > 0 {
		f.skipSyncs--
		return false
	}
	if f.failSyncs > 0 {
		f.failSyncs--
		return true
	}
	return false
}

func (f *failFS) wrap(file store.File, name string, err error) (store.File, error) {
	if err != nil || name != TxLogFile {
		return file, err
	}
	return &failFile{File: file, fs: f}, nil
}

func (f *failFS) Create(name string) (store.File, error) {
	file, err := f.FS.Create(name)
	return f.wrap(file, name, err)
}

func (f *failFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	return f.wrap(file, name, err)
}

func (f *failFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	failTrunc := f.failTruncate && name == TxLogFile
	f.mu.Unlock()
	if failTrunc {
		return errors.New("injected truncate fault")
	}
	return f.FS.Truncate(name, size)
}

type failFile struct {
	store.File
	fs *failFS
}

func (f *failFile) Sync() error {
	if f.fs.takeSyncFault() {
		return errors.New("injected sync fault")
	}
	return f.File.Sync()
}

// TestCrossShardCommitSyncFaultAborts: txlog fsync faults on the
// coordinator — first on the intent, then on the commit record with
// every retry failing — must abort safely: the submitter sees an
// error, no state moves, no shard is fenced, and the op goes through
// once the fault clears.
func TestCrossShardCommitSyncFaultAborts(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 2)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 2})
	old, nw, coord, _ := findCrossOp(t, m, pair, db, syms)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := &failFS{FS: fss[coord]}
	faulted := make([]store.FS, 2)
	copy(faulted, fss)
	faulted[coord] = ffs
	m, _ = mustOpen(t, faulted, pair, db, syms, Options{Shards: 2,
		CommitRetries: 2, Serve: serve.Options{BackoffBaseNS: 1}})
	defer m.Close()
	base := viewOf(pair, db)

	// The coordinator's first txlog fsync is its intent (the
	// participant's intent goes first but lives on the other shard):
	// blowing it aborts before the commit point.
	ffs.arm(0, 1, false)
	if _, err := m.Apply(context.Background(), core.Replace(old, nw)); err == nil {
		t.Fatal("cross op with blown coordinator intent fsync succeeded")
	}
	waitView(t, m, base)

	// Let the intent through, then fail the commit fsync and both
	// retries (CommitRetries=2): the truncate escape hatch demotes the
	// indeterminate record to a durable abort.
	ffs.arm(1, 3, false)
	if _, err := m.Apply(context.Background(), core.Replace(old, nw)); err == nil {
		t.Fatal("cross op with blown commit fsync succeeded")
	}
	waitView(t, m, base)
	if m.DegradedFor([]core.UpdateOp{core.Replace(old, nw)}) {
		t.Fatal("safe abort left a shard degraded")
	}
	assertTxLogsEmpty(t, fss)

	// Faults cleared: the same op sails through.
	ffs.arm(0, 0, false)
	d, err := m.Apply(context.Background(), core.Replace(old, nw))
	if err != nil || !d.Translatable {
		t.Fatalf("cross op after faults cleared: %v", err)
	}
	want := base.Clone()
	want.Delete(old)
	want.Insert(nw)
	waitView(t, m, want)
}

// TestCrossShardInDoubtFencesShards: when the commit record's
// durability is indeterminate AND the truncate escape hatch fails, the
// outcome is genuinely in doubt — both participating shards must be
// fenced (any later op could collide with what recovery redoes), and
// the next recovery settles the op from the txlogs alone.
func TestCrossShardInDoubtFencesShards(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 2)
	m, _ := mustOpen(t, fss, pair, db, syms, Options{Shards: 2})
	old, nw, coord, _ := findCrossOp(t, m, pair, db, syms)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := &failFS{FS: fss[coord]}
	faulted := make([]store.FS, 2)
	copy(faulted, fss)
	faulted[coord] = ffs
	m, _ = mustOpen(t, faulted, pair, db, syms, Options{Shards: 2,
		CommitRetries: 1, Serve: serve.Options{BackoffBaseNS: 1}})

	// Intent fsync passes; the commit fsync, its retry, and the
	// truncate hatch all fail: in doubt.
	ffs.arm(1, 1<<20, true)
	if _, err := m.Apply(context.Background(), core.Replace(old, nw)); err == nil {
		t.Fatal("in-doubt cross op reported success")
	}

	// Both shards are fenced: ops routed to either fail (K=2, so every
	// key range is covered by the fence). A submit can race the latch,
	// so judge by the ack, not the enqueue.
	for i := 0; i < 20; i++ {
		tup := relation.Tuple{syms.Const(fmt.Sprintf("probe%d", i)), syms.Const("dept0")}
		if _, err := m.Apply(context.Background(), core.Insert(tup)); err == nil {
			t.Fatalf("probe %d acked while in doubt", i)
		}
	}
	_ = m.Close() // carries the fence error by design

	// Power cut: the unsynced commit record dies with it, recovery
	// reads the surviving intents as an abort, and the fleet serves.
	ffs.arm(0, 0, false)
	mem.Crash()
	m2, rep, err := Open(fss, pair, db, syms, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(rep.Resolved) != 1 || rep.Resolved[0].Committed {
		t.Fatalf("recovery resolution %+v, want one aborted intent", rep.Resolved)
	}
	waitView(t, m2, viewOf(pair, db))
	assertTxLogsEmpty(t, fss)
	if _, err := m2.Apply(context.Background(), core.Replace(old, nw)); err != nil {
		t.Fatalf("cross op after recovery: %v", err)
	}
}

// TestShardFaultConfinement: a journal fsync fault on one shard breaks
// only that shard's session; its pipeline resurrects through the
// per-shard Resurrect hook, every submitted op heals, and no other
// shard ever turns degraded.
func TestShardFaultConfinement(t *testing.T) {
	pair, db, syms := shardFixture(16)
	mem := store.NewMemFS()
	fss := shardFSs(mem, 4)
	const sick = 1
	var armed atomic.Bool
	faulted := make([]store.FS, 4)
	copy(faulted, fss)
	faulted[sick] = store.NewFaultFS(fss[sick], store.FaultPlan{
		Match:      func(name string) bool { return armed.Load() && name == store.JournalFile },
		FailSyncAt: 1,
	})
	m, _ := mustOpen(t, faulted, pair, db, syms,
		Options{Shards: 4, Serve: serve.Options{BackoffBaseNS: 1}})
	defer m.Close()
	armed.Store(true)

	ctx := context.Background()
	expected := viewOf(pair, db)
	tups := pickInserts(t, m, expected, 24, "conf")
	waiters := make([]serve.Waiter, len(tups))
	for i, tup := range tups {
		w, err := m.ApplyAsync(ctx, core.Insert(tup))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waiters[i] = w
	}
	for i, w := range waiters {
		if _, err := w.Wait(); err != nil {
			t.Fatalf("op %d not healed: %v", i, err)
		}
	}
	for k := 0; k < 4; k++ {
		if k != sick && m.shards[k].pipe.Degraded() {
			t.Fatalf("healthy shard %d degraded by shard %d's fault", k, sick)
		}
	}
	waitView(t, m, expected)
}
