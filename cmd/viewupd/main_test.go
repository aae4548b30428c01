package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// fixture builds the EDM pair and database used by the command tests.
func fixture(t *testing.T) (*core.Pair, *relation.Relation, *value.Symbols) {
	t.Helper()
	schema, err := workload.ParseSchema("attrs: E D M\nE -> D\nD -> M\n")
	if err != nil {
		t.Fatal(err)
	}
	syms := value.NewSymbols()
	db, err := workload.ParseData(schema, syms, `
E D M
ed toys mo
flo toys mo
bob tools tim
`)
	if err != nil {
		t.Fatal(err)
	}
	u := schema.Universe()
	pair, err := core.NewPair(schema, u.MustSet("E", "D"), u.MustSet("D", "M"))
	if err != nil {
		t.Fatal(err)
	}
	return pair, db, syms
}

// newRunner wraps the fixture in an in-memory session runner capturing
// output.
func newRunner(t *testing.T) (*runner, *bytes.Buffer) {
	t.Helper()
	pair, db, syms := fixture(t)
	sess, err := core.NewSession(pair, db)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return &runner{sess: sess, syms: syms, out: &out}, &out
}

func viewHas(r *runner, vals ...string) bool {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = r.syms.Const(v)
	}
	return r.sess.View().Contains(t)
}

func TestExecuteInsertDeleteReplace(t *testing.T) {
	r, _ := newRunner(t)
	for _, cmd := range []string{
		"insert ann toys",
		"delete ed toys",
		"replace ann toys / ann tools",
	} {
		if err := r.execute(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if !viewHas(r, "ann", "tools") {
		t.Error("replace not applied")
	}
	if viewHas(r, "ed", "toys") {
		t.Error("delete not applied")
	}
}

func TestExecuteRejectionsAndErrorsKeepDatabase(t *testing.T) {
	r, _ := newRunner(t)
	before := r.sess.Database()
	// Untranslatable updates are normal outcomes: no error, no change.
	for _, cmd := range []string{
		"insert zoe plants", // condition (a)
		"delete bob tools",  // last sharer
	} {
		if err := r.execute(cmd); err != nil {
			t.Errorf("%q: rejection surfaced as error: %v", cmd, err)
		}
	}
	// Malformed commands are errors: reported, skipped, no change.
	for _, cmd := range []string{
		"insert onlyone",       // arity error
		"insert",               // empty tuple
		"replace ed toys",      // missing separator
		"replace ed toys / ed", // arity error
		"frobnicate ed toys",   // unknown command
		"decide insert",        // malformed decide
		"decide launch ed",     // unknown decide target
	} {
		if err := r.execute(cmd); err == nil {
			t.Errorf("%q: no error", cmd)
		}
	}
	if !r.sess.Database().Equal(before) {
		t.Error("rejected/erroneous commands mutated the database")
	}
}

// TestIncrementalFlagEquivalence runs the same script with the
// incremental path on (the shipped path) and off (the full-path
// reference, core.Session.SetIncremental(false)) and requires
// byte-identical output and final state: the delta state changes only
// the cost profile.
func TestIncrementalFlagEquivalence(t *testing.T) {
	script := []string{
		"insert ann toys",
		"decide insert zoe plants", // condition (a) rejection
		"delete ed toys",
		"replace ann toys / ann tools",
		"delete bob tools", // last sharer: rejected
		"view",
		"show",
	}
	// One fixture (one symbol table) for both runs so the final
	// databases are comparable value-for-value.
	pair, db, syms := fixture(t)
	run := func(incremental bool) (string, *relation.Relation) {
		sess, err := core.NewSession(pair, db)
		if err != nil {
			t.Fatal(err)
		}
		sess.SetIncremental(incremental)
		var out bytes.Buffer
		r := &runner{sess: sess, syms: syms, out: &out}
		for _, cmd := range script {
			if err := r.execute(cmd); err != nil {
				t.Fatalf("incremental=%v %q: %v", incremental, cmd, err)
			}
		}
		return out.String(), r.sess.Database()
	}
	incOut, incDB := run(true)
	fullOut, fullDB := run(false)
	if incOut != fullOut {
		t.Errorf("outputs differ:\nincremental:\n%s\nfull:\n%s", incOut, fullOut)
	}
	if !incDB.Equal(fullDB) {
		t.Error("final databases differ")
	}
}

func TestExecuteDecideAllKindsAndShow(t *testing.T) {
	r, out := newRunner(t)
	before := r.sess.Database()
	for _, cmd := range []string{
		"decide insert ann toys",
		"decide delete ed toys",
		"decide replace ed toys / ed tools",
		"show",
		"view",
	} {
		if err := r.execute(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if !r.sess.Database().Equal(before) {
		t.Error("read-only commands mutated the database")
	}
	if got := out.String(); strings.Count(got, "translatable=") != 3 {
		t.Errorf("decide output missing verdicts:\n%s", got)
	}
}

// TestScriptBadLineInMiddle is the satellite acceptance case: a
// malformed command mid-script is reported with its line number and
// skipped, the rest of the script still runs, and the summary error
// makes scripted mode exit non-zero.
func TestScriptBadLineInMiddle(t *testing.T) {
	r, out := newRunner(t)
	script := `# header comment
insert ann toys
insert bogus
delete ed toys
insert zed tools
`
	err := runScript(r, strings.NewReader(script))
	if err == nil {
		t.Fatal("script with a bad line reported success")
	}
	if !strings.Contains(err.Error(), "1 command(s) failed") {
		t.Errorf("summary error = %v", err)
	}
	if !strings.Contains(out.String(), "line 3: error:") {
		t.Errorf("bad line not reported with its number:\n%s", out.String())
	}
	// Commands after the bad line still ran.
	if !viewHas(r, "zed", "tools") || viewHas(r, "ed", "toys") || !viewHas(r, "ann", "toys") {
		t.Errorf("commands around the bad line did not run;\n%s", out.String())
	}
}

func TestScriptQuitStopsEarly(t *testing.T) {
	r, _ := newRunner(t)
	script := "insert ann toys\nquit\ninsert zed tools\n"
	if err := runScript(r, strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	if viewHas(r, "zed", "tools") {
		t.Error("commands after quit ran")
	}
}

// TestRunnerOverDurableSession drives the same command loop over a
// store.Session and checks a recovery sees the scripted updates.
func TestRunnerOverDurableSession(t *testing.T) {
	pair, db, syms := fixture(t)
	mem := store.NewMemFS()
	st, err := store.Create(mem, pair, db, syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{sess: st, syms: syms, out: &bytes.Buffer{}}
	script := "insert ann toys\ndelete ed toys\n"
	if err := runScript(r, strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	mem.Crash() // journaled ops are fsynced; nothing should be lost
	syms2 := value.NewSymbols()
	rec, rep, err := store.Recover(mem, pair, syms2, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq+uint64(rep.Replayed) != 2 || !rep.InvariantOK {
		t.Errorf("recovery report %+v", rep)
	}
	v := rec.View()
	if !v.Contains(relation.Tuple{syms2.Const("ann"), syms2.Const("toys")}) {
		t.Error("recovered session lost a scripted insert")
	}
}

// TestScriptBatchMode groups consecutive updates into shared journal
// fsyncs: a 5-update script at -batch 4 costs 2 journal batches (one
// full, one flushed at end of script), not 5, and a rejection inside a
// batch is reported without failing the script. The mid-script `view`
// command must observe every buffered update (flush-before-read).
func TestScriptBatchMode(t *testing.T) {
	reg := obs.NewRegistry()
	store.SetMetrics(reg)
	defer store.SetMetrics(nil)

	pair, db, syms := fixture(t)
	mem := store.NewMemFS()
	st, err := store.Create(mem, pair, db, syms, store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	r := &runner{sess: st, syms: syms, out: &out, batch: 4, st: st}
	// Within the first batch, the delete is still a last-sharer rejection
	// because it precedes the insert that would have given bob company.
	script := `insert ann toys
delete bob tools
insert zed tools
insert kim toys
view
insert pat tools
`
	if err := runScript(r, strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	if !viewHas(r, "ann", "toys") || !viewHas(r, "zed", "tools") || !viewHas(r, "pat", "tools") {
		t.Errorf("batched updates missing from the view:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "rejected") {
		t.Errorf("in-batch rejection not reported:\n%s", out.String())
	}
	// `view` printed after the first flush must include the batched rows.
	if !strings.Contains(out.String(), "ann") {
		t.Errorf("view output missing buffered update:\n%s", out.String())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["store_journal_batches_total"]; got != 2 {
		t.Errorf("store_journal_batches_total = %d, want 2 (4 updates + 1 after flush)", got)
	}
	if got := snap.Counters["store_journal_records_total"]; got != 4 {
		t.Errorf("store_journal_records_total = %d, want 4 applied (3 + 1; the delete is rejected)", got)
	}
	mem.Crash()
	syms2 := value.NewSymbols()
	rec, _, err := store.Recover(mem, pair, syms2, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.View().Contains(relation.Tuple{syms2.Const("pat"), syms2.Const("tools")}) {
		t.Error("end-of-script flush was not durable")
	}
}

// TestRunnerTimeout: with an already-expired budget every update
// command fails as a timeout error (and is skipped) instead of
// hanging or crashing the session.
func TestRunnerTimeout(t *testing.T) {
	r, out := newRunner(t)
	r.timeout = time.Nanosecond
	before := r.sess.Database()
	err := runScript(r, strings.NewReader("insert ann toys\n"))
	if err == nil {
		t.Fatal("timed-out command not counted as failed")
	}
	if !strings.Contains(out.String(), "timed out") {
		t.Errorf("timeout not reported:\n%s", out.String())
	}
	if !r.sess.Database().Equal(before) {
		t.Error("timed-out command mutated the database")
	}
}

// TestMetricsReport runs a script with every subsystem instrumented and
// checks the report lands on disk in both formats, covering core
// decide/apply and the relational kernels underneath.
func TestMetricsReport(t *testing.T) {
	reg := obs.NewRegistry()
	relation.SetMetrics(reg)
	core.SetMetrics(reg)
	defer relation.SetMetrics(nil)
	defer core.SetMetrics(nil)

	r, _ := newRunner(t)
	if err := runScript(r, strings.NewReader("insert ann toys\ndelete ed toys\n")); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	if err := writeMetricsReport(reg, jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if snap.Counters["core_decide_total"] != 2 {
		t.Errorf("core_decide_total = %d, want 2", snap.Counters["core_decide_total"])
	}
	if snap.Counters["core_apply_applied_total"] != 2 {
		t.Errorf("core_apply_applied_total = %d, want 2", snap.Counters["core_apply_applied_total"])
	}
	if snap.Counters["relation_project_calls_total"] == 0 {
		t.Error("relation kernels not instrumented through the session")
	}

	promPath := filepath.Join(dir, "report.prom")
	if err := writeMetricsReport(reg, promPath); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE core_decide_total counter") {
		t.Errorf("prometheus report missing counter type line:\n%s", prom)
	}
}
