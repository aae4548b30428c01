package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// edmFixture is the paper's §2 Employee–Department–Manager schema with
// view X = ED under constant complement Y = DM, two departments with
// two permanent employees each (so no update below ever empties a
// department and every generated op is translatable).
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

// ops50 generates a deterministic 50-op session mixing inserts,
// deletes, and replaces, every one translatable against edmFixture.
func ops50(syms *value.Symbols) []core.UpdateOp {
	dept := func(d int) value.Value { return syms.Const(fmt.Sprintf("dept%d", d%2)) }
	type emp struct {
		name string
		d    int
	}
	var pool []emp
	var ops []core.UpdateOp
	for i := 0; len(ops) < 50; i++ {
		switch {
		case len(pool) > 2 && i%7 == 3:
			e := pool[0]
			pool = pool[1:]
			ops = append(ops, core.Delete(relation.Tuple{syms.Const(e.name), dept(e.d)}))
		case len(pool) > 0 && i%7 == 5:
			e := pool[0]
			pool[0].d = e.d + 1
			ops = append(ops, core.Replace(
				relation.Tuple{syms.Const(e.name), dept(e.d)},
				relation.Tuple{syms.Const(e.name), dept(e.d + 1)},
			))
		default:
			name := fmt.Sprintf("e%02d", i)
			ops = append(ops, core.Insert(relation.Tuple{syms.Const(name), dept(i)}))
			pool = append(pool, emp{name, i})
		}
	}
	return ops
}

// applyOps applies a fixed list of updates as one group commit, every
// member bounded by ctx.
func applyOps(ctx context.Context, st *Session, ops []core.UpdateOp) ([]BatchItem, error) {
	members := make([]BatchOp, len(ops))
	for i, op := range ops {
		members[i] = BatchOp{Ctx: ctx, Op: op}
	}
	return st.ApplyOpsCtx(Ops(members), nil)
}

// render canonicalizes a relation for comparison across processes with
// different symbol-interning orders: constants by name, rows sorted.
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

// referenceAfter replays the first n ops on a plain in-memory session
// and renders the resulting database.
func referenceAfter(t *testing.T, n int) string {
	t.Helper()
	pair, db, syms := edmFixture()
	sess, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	for i, op := range ops[:n] {
		if _, err := sess.Apply(op); err != nil {
			t.Fatalf("reference op %d: %v", i+1, err)
		}
	}
	return render(sess.Database(), syms)
}

func journalOnly(name string) bool { return name == JournalFile }

// TestCrashMatrix is the acceptance matrix: a 50-op session killed at
// every journal record boundary, under four fault modes per boundary —
// outright write failure, fsync failure (bytes written but not
// durable), and two torn-write geometries (a few bytes of a record, and
// a tear past the header into the payload). After each kill, recovery
// from what a real disk would retain must rebuild exactly the
// acknowledged prefix and re-verify the constant-complement invariant;
// the revived session must then complete the remaining workload.
func TestCrashMatrix(t *testing.T) {
	opts := Options{SnapshotEvery: 16}
	modes := []struct {
		name string
		plan func(n int) FaultPlan
		torn bool
	}{
		{"failWrite", func(n int) FaultPlan {
			return FaultPlan{Match: journalOnly, FailWriteAt: n}
		}, false},
		{"failSync", func(n int) FaultPlan {
			return FaultPlan{Match: journalOnly, FailSyncAt: n}
		}, false},
		{"tearShort", func(n int) FaultPlan {
			return FaultPlan{Match: journalOnly, TearWriteAt: n, TearKeep: 5}
		}, true},
		{"tearPastHeader", func(n int) FaultPlan {
			return FaultPlan{Match: journalOnly, TearWriteAt: n, TearKeep: 13}
		}, true},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			for n := 1; n <= 50; n++ {
				mem := NewMemFS()
				ffs := NewFaultFS(mem, mode.plan(n))
				pair, db, syms := edmFixture()
				st, err := Create(ffs, pair, db, syms, opts)
				if err != nil {
					t.Fatalf("n=%d: create: %v", n, err)
				}
				ops := ops50(syms)
				applied := 0
				var failure error
				for _, op := range ops {
					if _, err := st.Apply(op); err != nil {
						failure = err
						break
					}
					applied++
				}
				if failure == nil {
					t.Fatalf("n=%d: fault never fired", n)
				}
				if !errors.Is(failure, ErrSessionBroken) {
					t.Fatalf("n=%d: journal fault surfaced as %v, want ErrSessionBroken", n, failure)
				}
				if applied != n-1 {
					t.Fatalf("n=%d: %d ops acked before the fault, want %d", n, applied, n-1)
				}
				// The broken session refuses further work.
				if _, err := st.Apply(ops[applied]); !errors.Is(err, ErrSessionBroken) {
					t.Fatalf("n=%d: broken session accepted an op (%v)", n, err)
				}

				mem.Crash()
				syms2 := value.NewSymbols()
				rec, rep, err := Recover(mem, pair, syms2, opts)
				if err != nil {
					t.Fatalf("n=%d: recover: %v", n, err)
				}
				if !rep.InvariantOK {
					t.Fatalf("n=%d: invariant not re-verified: %+v", n, rep)
				}
				if got := rep.SnapshotSeq + uint64(rep.Replayed); got != uint64(n-1) {
					t.Fatalf("n=%d: recovered seq %d (snapshot %d + %d replayed), want %d",
						n, got, rep.SnapshotSeq, rep.Replayed, n-1)
				}
				if mode.torn != rep.Torn || rep.Corrupt {
					t.Fatalf("n=%d: tail report torn=%v corrupt=%v, want torn=%v corrupt=false",
						n, rep.Torn, rep.Corrupt, mode.torn)
				}
				if got, want := render(rec.Database(), syms2), referenceAfter(t, n-1); got != want {
					t.Fatalf("n=%d: recovered database:\n%s\nwant:\n%s", n, got, want)
				}

				// The revived session finishes the workload (including the
				// op whose ack was lost) and lands on the full-run state.
				ops2 := ops50(syms2)
				for i, op := range ops2[n-1:] {
					if _, err := rec.Apply(op); err != nil {
						t.Fatalf("n=%d: post-recovery op %d: %v", n, n+i, err)
					}
				}
				if got, want := render(rec.Database(), syms2), referenceAfter(t, 50); got != want {
					t.Fatalf("n=%d: post-recovery completion diverged:\n%s\nwant:\n%s", n, got, want)
				}
			}
		})
	}
}

// TestRecoverCorruptMiddle flips a byte in the middle of the journal:
// intact records survive past the damage, so recovery must refuse with
// ErrDataLoss until forced, and a forced recovery must keep the records
// before the damage, truncate everything from it on, and flag the tail
// corrupt (not torn).
func TestRecoverCorruptMiddle(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	for _, op := range ops[:10] {
		if _, err := st.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	img, ok := mem.Bytes(JournalFile)
	if !ok {
		t.Fatal("journal missing")
	}
	// Find the byte offset of record 4 and damage its payload.
	var off int64
	for i := 0; i < 3; i++ {
		_, n, err := DecodeRecord(img[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += int64(n)
	}
	if err := mem.Corrupt(JournalFile, int(off)+FrameHeaderLen); err != nil {
		t.Fatal(err)
	}
	// Records 5..10 are intact past the damage: recovery must refuse to
	// silently drop them, and must leave the journal untouched.
	if _, _, err := Recover(mem, pair, value.NewSymbols(), Options{}); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("unforced recover on mid-journal corruption: err=%v, want ErrDataLoss", err)
	}
	if img2, _ := mem.Bytes(JournalFile); len(img2) != len(img) {
		t.Fatalf("refused recovery still truncated the journal: %d bytes, want %d", len(img2), len(img))
	}
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{ForceRecover: true})
	if err != nil {
		t.Fatalf("forced recover: %v", err)
	}
	if !rep.Corrupt || rep.Torn {
		t.Errorf("tail report torn=%v corrupt=%v, want corrupt only", rep.Torn, rep.Corrupt)
	}
	if rep.Replayed != 3 {
		t.Errorf("replayed %d records past the damage, want 3", rep.Replayed)
	}
	if rep.TruncatedBytes != int64(len(img))-off {
		t.Errorf("truncated %d bytes, want %d", rep.TruncatedBytes, int64(len(img))-off)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 3); got != want {
		t.Errorf("recovered database:\n%s\nwant:\n%s", got, want)
	}
	// The truncation is durable: a second recovery sees a clean journal.
	_, rep2, err := Recover(mem, pair, value.NewSymbols(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Torn || rep2.Corrupt || rep2.TruncatedBytes != 0 {
		t.Errorf("second recovery still sees damage: %+v", rep2)
	}
}

// TestRecoverSkipsPreSnapshotRecords models a crash between snapshot
// rename and journal reset: the journal retains records the snapshot
// already absorbed, which recovery must skip by sequence number.
func TestRecoverSkipsPreSnapshotRecords(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	for _, op := range ops[:6] {
		if _, err := st.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-write a snapshot at seq 3 without resetting the journal —
	// exactly the on-disk state of a crash inside rotate().
	pairRef, dbRef, symsRef := edmFixture()
	ref, err := core.NewSession(pairRef, dbRef)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops50(symsRef)[:3] {
		if _, err := ref.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writeSnapshot(mem, SnapshotFile, 3, ref.Database(), symsRef, 0); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.SnapshotSeq != 3 || rep.Skipped != 3 || rep.Replayed != 3 {
		t.Errorf("report %+v, want snapshot 3, 3 skipped, 3 replayed", rep)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 6); got != want {
		t.Errorf("recovered database:\n%s\nwant:\n%s", got, want)
	}
}

// TestRejectedOpNotJournaled: untranslatable updates are logged in
// memory but never journaled, so recovery reproduces only applied ops.
func TestRejectedOpNotJournaled(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	for _, op := range ops[:5] {
		if _, err := st.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := mem.Bytes(JournalFile)
	// Inserting an employee into a department with no manager anywhere
	// in the database is untranslatable under constant DM.
	bad := core.Insert(relation.Tuple{syms.Const("ghost"), syms.Const("deptX")})
	if _, err := st.Apply(bad); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	after, _ := mem.Bytes(JournalFile)
	if len(after) != len(before) {
		t.Errorf("rejected op grew the journal by %d bytes", len(after)-len(before))
	}
	if st.Seq() != 5 {
		t.Errorf("seq %d after rejection, want 5", st.Seq())
	}
	// And the store remains healthy.
	if _, err := st.Apply(ops[5]); err != nil {
		t.Fatalf("apply after rejection: %v", err)
	}
}

// TestSnapshotFailureDegradesGracefully: a failing snapshot write must
// not fail the op or break the session — durability falls back to the
// journal alone, and recovery still works.
func TestSnapshotFailureDegradesGracefully(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{
		Match:       func(name string) bool { return name == SnapshotFile+".1" },
		FailWriteAt: 1, // the first rotation writes the second slot, and fails
	})
	pair, db, syms := edmFixture()
	st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	for i, op := range ops[:4] {
		if _, err := st.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
	if st.SnapshotErr() == nil {
		t.Fatal("snapshot fault did not surface in SnapshotErr")
	}
	// The next rotation (op 8) succeeds and clears the degraded state.
	for i, op := range ops[4:8] {
		if _, err := st.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i+5, err)
		}
	}
	if err := st.SnapshotErr(); err != nil {
		t.Fatalf("degraded state not cleared after good snapshot: %v", err)
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(mem, pair, syms2, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := rep.SnapshotSeq + uint64(rep.Replayed); got != 8 {
		t.Errorf("recovered seq %d, want 8", got)
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 8); got != want {
		t.Errorf("recovered database:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpenFreshAndResume covers the Open convenience on both paths.
func TestOpenFreshAndResume(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, rep, err := Open(mem, pair, db, syms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("fresh Open produced a recovery report: %+v", rep)
	}
	ops := ops50(syms)
	for _, op := range ops[:7] {
		if _, err := st.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	syms2 := value.NewSymbols()
	st2, rep2, err := Open(mem, pair, nil, syms2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2 == nil {
		t.Fatal("resuming Open did not recover")
	}
	if got, want := render(st2.Database(), syms2), referenceAfter(t, 7); got != want {
		t.Errorf("resumed database:\n%s\nwant:\n%s", got, want)
	}
}

// TestDirFS runs the full create/apply/recover cycle on a real
// directory.
func TestDirFS(t *testing.T) {
	fsys, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pair, db, syms := edmFixture()
	st, err := Create(fsys, pair, db, syms, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	ops := ops50(syms)
	for _, op := range ops {
		if _, err := st.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	syms2 := value.NewSymbols()
	rec, rep, err := Recover(fsys, pair, syms2, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !rep.InvariantOK {
		t.Error("invariant not verified")
	}
	if got, want := render(rec.Database(), syms2), referenceAfter(t, 50); got != want {
		t.Errorf("recovered database:\n%s\nwant:\n%s", got, want)
	}
}

// memWrite creates name on m with the given contents fsynced (but the
// directory not).
func memWrite(t *testing.T, m *MemFS, name, contents string) {
	t.Helper()
	f, err := m.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(contents)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemFSMetadataDurability pins the MemFS failure model for
// directory metadata: creates, renames, and removes are visible
// immediately but revert on Crash unless SyncDir ran — even when the
// file's *contents* were fsynced, matching a POSIX directory that was
// never fsynced.
func TestMemFSMetadataDurability(t *testing.T) {
	m := NewMemFS()

	// A created file with fsynced contents still vanishes: its
	// directory entry was never made durable.
	memWrite(t, m, "a", "hello")
	m.Crash()
	if _, ok := m.Bytes("a"); ok {
		t.Fatal("unsynced-create file survived crash despite fsynced contents")
	}

	// A durable file overwritten via an unsynced rename reverts to the
	// old contents, and the rename source does not resurrect.
	memWrite(t, m, "a", "old")
	if err := m.SyncDir(); err != nil {
		t.Fatal(err)
	}
	memWrite(t, m, "b", "new")
	if err := m.Rename("b", "a"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got, ok := m.Bytes("a"); !ok || string(got) != "old" {
		t.Fatalf("unsynced rename not reverted: %q (exists=%v), want \"old\"", got, ok)
	}
	if _, ok := m.Bytes("b"); ok {
		t.Fatal("rename source resurrected after crash")
	}

	// The same rename followed by SyncDir is durable.
	memWrite(t, m, "b", "new")
	if err := m.Rename("b", "a"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got, ok := m.Bytes("a"); !ok || string(got) != "new" {
		t.Fatalf("synced rename lost: %q (exists=%v), want \"new\"", got, ok)
	}

	// An unsynced remove reverts; pending (never-fsynced) bytes on a
	// durable file are still dropped.
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got, ok := m.Bytes("a"); !ok || string(got) != "new" {
		t.Fatalf("unsynced remove not reverted: %q (exists=%v)", got, ok)
	}
	f, err := m.OpenAppend("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-unsynced")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got, _ := m.Bytes("a"); string(got) != "new" {
		t.Fatalf("unsynced bytes survived crash: %q", got)
	}
}

// TestRotationDurableAcrossCrash kills the store by power loss exactly
// at a snapshot rotation and one op after it. The rename and the
// journal reset must both survive (rename durable first), and an op
// acknowledged into the fresh journal must not be lost to a
// resurrected pre-rotation journal — the failure mode when the
// directory is never fsynced.
func TestRotationDurableAcrossCrash(t *testing.T) {
	for _, n := range []int{16, 17} {
		mem := NewMemFS()
		pair, db, syms := edmFixture()
		st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops50(syms)[:n] {
			if _, err := st.Apply(op); err != nil {
				t.Fatalf("n=%d: op %d: %v", n, i+1, err)
			}
		}
		mem.Crash()
		syms2 := value.NewSymbols()
		rec, rep, err := Recover(mem, pair, syms2, Options{})
		if err != nil {
			t.Fatalf("n=%d: recover: %v", n, err)
		}
		if got := rep.SnapshotSeq + uint64(rep.Replayed); got != uint64(n) {
			t.Fatalf("n=%d: recovered seq %d (snapshot %d + %d replayed), want %d",
				n, got, rep.SnapshotSeq, rep.Replayed, n)
		}
		if got, want := render(rec.Database(), syms2), referenceAfter(t, n); got != want {
			t.Fatalf("n=%d: recovered database:\n%s\nwant:\n%s", n, got, want)
		}
	}
}

// TestSyncDirFailures drives the directory-fsync failure points in
// rotate: the first checkpoint into each slot in a session makes the
// slot's directory entry durable before the journal reset relies on
// it. When that fails the store degrades (journal-only durability,
// retried later): the floor and the journal stay as they were.
func TestSyncDirFailures(t *testing.T) {
	// Create issues SyncDir 1 (snapshot) and 2 (journal); the rotation
	// at op 4 creates the second slot and issues 3, the one at op 8
	// re-creates the first slot and issues 4.
	t.Run("snapshotPathDegrades", func(t *testing.T) {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, FaultPlan{FailSyncDirAt: 3})
		pair, db, syms := edmFixture()
		st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		ops := ops50(syms)
		for i, op := range ops[:4] {
			if _, err := st.Apply(op); err != nil {
				t.Fatalf("op %d: %v", i+1, err)
			}
		}
		if !errors.Is(st.SnapshotErr(), ErrInjected) {
			t.Fatalf("SnapshotErr = %v, want the injected dir-sync fault", st.SnapshotErr())
		}
		// The session stays healthy and the retried rotation clears it.
		if _, err := st.Apply(ops[4]); err != nil {
			t.Fatalf("apply after degraded snapshot: %v", err)
		}
		if err := st.SnapshotErr(); err != nil {
			t.Fatalf("degraded state not cleared by retried rotation: %v", err)
		}
	})
	t.Run("slotCreateDegrades", func(t *testing.T) {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, FaultPlan{FailSyncDirAt: 4})
		pair, db, syms := edmFixture()
		st, err := Create(ffs, pair, db, syms, Options{SnapshotEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		ops := ops50(syms)
		for i, op := range ops[:8] {
			if _, err := st.Apply(op); err != nil {
				t.Fatalf("op %d: %v", i+1, err)
			}
		}
		if !errors.Is(st.SnapshotErr(), ErrInjected) {
			t.Fatalf("SnapshotErr = %v, want the injected dir-sync fault", st.SnapshotErr())
		}
		if st.Broken() != nil {
			t.Fatalf("session broken by a failed slot dir sync: %v", st.Broken())
		}
		// The journal was not reset: it still holds every op past the
		// floor at seq 4.
		if recs := ScanJournal(mustBytes(t, mem, JournalFile)).Records; len(recs) != 4 || recs[0].Seq != 5 {
			t.Fatalf("journal holds %d records after the failed checkpoint, want seqs 5..8", len(recs))
		}
		// All eight acknowledged ops survive the crash: the slot at
		// seq 4 is durable, and the journal continues it.
		mem.Crash()
		syms2 := value.NewSymbols()
		rec, rep, err := Recover(mem, pair, syms2, Options{})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if got := rep.SnapshotSeq + uint64(rep.Replayed); got != 8 {
			t.Fatalf("recovered seq %d, want 8 (report %+v)", got, rep)
		}
		if got, want := render(rec.Database(), syms2), referenceAfter(t, 8); got != want {
			t.Fatalf("recovered database:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestOpenMissingJournalRecovers: a missing journal next to an intact
// snapshot is a recoverable store, not a fresh one — Open must never
// reroute to Create and overwrite the snapshot.
func TestOpenMissingJournalRecovers(t *testing.T) {
	mem := NewMemFS()
	pair, db, syms := edmFixture()
	st, err := Create(mem, pair, db, syms, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops50(syms)[:4] {
		if _, err := st.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Remove(JournalFile); err != nil {
		t.Fatal(err)
	}
	if err := mem.SyncDir(); err != nil {
		t.Fatal(err)
	}
	// db is nil: reaching the Create path would be the data-destroying
	// rewrite this test guards against, and it would fail loudly.
	syms2 := value.NewSymbols()
	st2, rep, err := Open(mem, pair, nil, syms2, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rep == nil {
		t.Fatal("Open with an intact snapshot did not take the recovery path")
	}
	if got, want := render(st2.Database(), syms2), referenceAfter(t, 4); got != want {
		t.Fatalf("recovered database:\n%s\nwant:\n%s", got, want)
	}
	// The re-created journal is live: new ops are accepted and durable.
	if _, err := st2.Apply(ops50(syms2)[4]); err != nil {
		t.Fatalf("apply after journal re-creation: %v", err)
	}
	mem.Crash()
	syms3 := value.NewSymbols()
	st3, _, err := Recover(mem, pair, syms3, Options{})
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if got, want := render(st3.Database(), syms3), referenceAfter(t, 5); got != want {
		t.Fatalf("database after crash:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotDecodeRejectsDamage exercises the snapshot codec's
// error paths: bad magic, wrong checksum, wrong universe.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	pair, db, syms := edmFixture()
	u := pair.Schema().Universe()
	img, err := EncodeSnapshot(9, db, syms)
	if err != nil {
		t.Fatal(err)
	}
	if seq, got, err := DecodeSnapshot(img, u, value.NewSymbols()); err != nil || seq != 9 || got.Len() != db.Len() {
		t.Fatalf("round trip: seq=%d len=%v err=%v", seq, got, err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXSNAP1\n"), img[8:]...),
		"truncated": img[:len(img)-3],
	}
	flipped := append([]byte(nil), img...)
	flipped[len(snapMagic)+FrameHeaderLen+2] ^= 0xff
	cases["bit flip"] = flipped
	for name, data := range cases {
		if _, _, err := DecodeSnapshot(data, u, value.NewSymbols()); err == nil {
			t.Errorf("%s: decode accepted damaged snapshot", name)
		}
	}
	wrong := attr.MustUniverse("A", "B")
	if _, _, err := DecodeSnapshot(img, wrong, value.NewSymbols()); err == nil {
		t.Error("decode accepted snapshot for a different universe")
	}
}
