// Command viewupd runs a constant-complement view-update session against
// a universal-relation database: it loads a schema and an instance,
// fixes a view and a complement, and executes update commands, refusing
// untranslatable ones with the paper's diagnosis.
//
// Usage:
//
//	viewupd -schema schema.txt -data data.txt -view "E D" [-complement "D M"]
//	        [-script s.txt] [-journal dir] [-recover [-force]] [-timeout 2s]
//	        [-batch n] [-metrics report.json]
//
// Without -complement, the minimal complement of Corollary 2 is used.
// With -batch n (requires -journal), consecutive update commands are
// buffered and applied as one group commit — one journal write and one
// fsync shared by up to n updates — flushing on a non-update command,
// a full buffer, or end of script. Durability is unchanged: a command's
// outcome is printed only after the fsync covering it. The session
// maintains delta state (view and complement indexes, an incrementally
// chased padding) so each decide/apply costs time proportional to the
// update, not the instance; the full re-projection path runs
// automatically whenever the delta state cannot prove the canonical
// outcome. With -metrics, every subsystem is instrumented and a report
// is written to the given file on exit (even when a scripted run
// fails): expvar-style JSON by default, Prometheus text format when the
// file name ends in .prom, stdout when the name is "-".
//
// With -journal, the session is durable: every applied update is
// journaled and fsynced in dir before it is acknowledged, and -recover
// resumes a session killed mid-run by replaying the journal onto the
// last snapshot (pass the same -schema/-view/-complement flags; -data
// is not needed). Recovery refuses to truncate mid-journal corruption
// that would drop acknowledged updates unless -force is given. With
// -timeout, each command's decision procedure is bounded and times out
// instead of hanging on adversarial schemas. A storage fault that
// breaks the durable session fails every later update of the run;
// -recover on the same directory resumes with every acknowledged
// update. (Resurrecting a broken session online is the serving
// pipeline's job, in viewsrv.)
//
// Commands (from -script or stdin), one per line:
//
//	insert  <v1> <v2> ...         insert a view tuple
//	delete  <v1> <v2> ...         delete a view tuple
//	replace <v1> ... / <w1>...    replace one view tuple by another
//	decide  <insert|delete> <t>   test translatability without applying
//	decide  replace <t> / <t>
//	show                          print the database
//	view                          print the view instance
//	quit
//
// A malformed or failed command is reported with its line number and
// skipped; the session continues. In scripted mode the exit status is
// non-zero if any command failed (rejected updates are a normal outcome,
// not a failure).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/logic"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// updSession is the slice of a session the command loop needs; both the
// in-memory core.Session and the durable store.Session satisfy it.
type updSession interface {
	Database() *relation.Relation
	View() *relation.Relation
	DecideCtx(context.Context, core.UpdateOp) (*core.Decision, error)
	ApplyCtx(context.Context, core.UpdateOp) (*core.Decision, error)
}

var (
	_ updSession = (*core.Session)(nil)
	_ updSession = (*store.Session)(nil)
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("viewupd: ")
	schemaPath := flag.String("schema", "", "path to the schema file (required)")
	dataPath := flag.String("data", "", "path to the instance file (required unless -recover)")
	viewSpec := flag.String("view", "", "view attributes, e.g. \"E D\" (required)")
	compSpec := flag.String("complement", "", "complement attributes (default: minimal complement)")
	scriptPath := flag.String("script", "", "command script (default: stdin)")
	journalDir := flag.String("journal", "", "directory for the durable journal + snapshots")
	recoverFlag := flag.Bool("recover", false, "resume a crashed session from -journal")
	forceFlag := flag.Bool("force", false, "with -recover: recover past damage that loses acknowledged updates (mid-journal corruption, or a damaged snapshot slot the journal does not bridge)")
	timeout := flag.Duration("timeout", 0, "per-command decision budget (0 = unlimited)")
	batchN := flag.Int("batch", 1, "group up to n consecutive updates into one journal fsync (requires -journal)")
	metricsPath := flag.String("metrics", "", "write a metrics report here on exit (JSON, or Prometheus text if the name ends in .prom; - for stdout)")
	flag.Parse()
	if *schemaPath == "" || *viewSpec == "" || (*dataPath == "" && !*recoverFlag) {
		flag.Usage()
		os.Exit(2)
	}
	if *recoverFlag && *journalDir == "" {
		log.Fatal("-recover requires -journal")
	}
	if *batchN < 1 {
		log.Fatal("-batch must be at least 1")
	}
	if *batchN > 1 && *journalDir == "" {
		log.Fatal("-batch requires -journal: group commit is about sharing journal fsyncs")
	}

	// With -metrics, instrument every subsystem the session can exercise:
	// relational kernels, the chases, the solvers, budgets, session
	// decide/apply, and the durable store.
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		relation.SetMetrics(reg)
		chase.SetMetrics(reg)
		logic.SetMetrics(reg)
		budget.SetMetrics(reg)
		core.SetMetrics(reg)
		store.SetMetrics(reg)
	}

	schemaText, err := os.ReadFile(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}
	schema, err := workload.ParseSchema(string(schemaText))
	if err != nil {
		log.Fatal(err)
	}
	u := schema.Universe()
	x, err := u.ParseSet(*viewSpec)
	if err != nil {
		log.Fatal(err)
	}
	y := core.MinimalComplement(schema, x)
	if *compSpec != "" {
		if y, err = u.ParseSet(*compSpec); err != nil {
			log.Fatal(err)
		}
	}
	pair, err := core.NewPair(schema, x, y)
	if err != nil {
		log.Fatal(err)
	}
	syms := value.NewSymbols()

	var db *relation.Relation
	if *dataPath != "" {
		dataText, err := os.ReadFile(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
		if db, err = workload.ParseData(schema, syms, string(dataText)); err != nil {
			log.Fatal(err)
		}
		if !db.Attrs().Equal(u.All()) {
			log.Fatalf("instance must cover all of U = %v", u.All())
		}
		if ok, bad := schema.Legal(db); !ok {
			log.Fatalf("instance violates %v", bad)
		}
	}

	var sess updSession
	var st *store.Session
	switch {
	case *journalDir != "":
		fsys, err := store.NewDirFS(*journalDir)
		if err != nil {
			log.Fatal(err)
		}
		if *recoverFlag {
			s, rep, err := store.Recover(fsys, pair, syms, store.Options{ForceRecover: *forceFlag})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(rep)
			st = s
		} else {
			s, err := store.Create(fsys, pair, db, syms, store.Options{})
			if err != nil {
				log.Fatal(err)
			}
			st = s
		}
		defer st.Close()
		sess = st
	default:
		s, err := core.NewSession(pair, db)
		if err != nil {
			log.Fatal(err)
		}
		sess = s
	}
	fmt.Printf("view X = %v, constant complement Y = %v\n", x, y)
	if good, err := pair.IsGoodComplement(); err == nil {
		fmt.Printf("good complement: %v\n", good)
	}

	var in io.Reader = os.Stdin
	scripted := *scriptPath != ""
	if scripted {
		f, err := os.Open(*scriptPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	r := &runner{sess: sess, syms: syms, out: os.Stdout, timeout: *timeout, batch: *batchN, st: st}
	scriptErr := runScript(r, in)
	// The metrics report is written before the exit status is decided so
	// a failing script still leaves its instrumentation behind.
	if reg != nil {
		if err := writeMetricsReport(reg, *metricsPath); err != nil {
			log.Print(err)
		}
	}
	if scriptErr != nil {
		if scripted {
			log.Fatal(scriptErr)
		}
		log.Print(scriptErr)
	}
}

// writeMetricsReport dumps the registry to path: Prometheus text format
// when the name ends in .prom, expvar-style JSON otherwise, stdout when
// path is "-".
func writeMetricsReport(reg *obs.Registry, path string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if strings.HasSuffix(path, ".prom") {
		return reg.WritePrometheus(w)
	}
	return reg.WriteJSON(w)
}

// runner executes commands against a session, skipping bad lines.
type runner struct {
	sess    updSession
	syms    *value.Symbols
	out     io.Writer
	timeout time.Duration
	errs    int

	// Group commit state. With batch > 1, consecutive update commands
	// accumulate in pending and are applied as one store group commit;
	// any non-update command flushes first so the state it shows
	// includes every buffered update.
	batch   int
	st      *store.Session
	pending []bufferedOp
}

// bufferedOp is one update command awaiting its group commit.
type bufferedOp struct {
	cmd string
	op  core.UpdateOp
}

// runScript feeds commands to the runner, numbering raw lines from 1. A
// malformed or failed command is reported and skipped; the script keeps
// going. The returned error summarizes how many commands failed (nil if
// none), so scripted callers can exit non-zero.
func runScript(r *runner, in io.Reader) error {
	sc := bufio.NewScanner(in)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" {
			break
		}
		if err := r.execute(line); err != nil {
			r.errs++
			fmt.Fprintf(r.out, "line %d: error: %v (command skipped)\n", lineNo, err)
		}
	}
	r.flush()
	if err := sc.Err(); err != nil {
		return err
	}
	if r.errs > 0 {
		return fmt.Errorf("%d command(s) failed", r.errs)
	}
	return nil
}

func (r *runner) ctx() (context.Context, context.CancelFunc) {
	if r.timeout > 0 {
		return context.WithTimeout(context.Background(), r.timeout)
	}
	return context.Background(), func() {}
}

// parseOp parses "insert"/"delete"/"replace" operand text into an
// update op over the current view.
func (r *runner) parseOp(kind, rest string) (core.UpdateOp, error) {
	view := r.sess.View()
	switch kind {
	case "insert", "delete":
		t, err := workload.ParseTuple(view, r.syms, rest)
		if err != nil {
			return core.UpdateOp{}, err
		}
		if kind == "insert" {
			return core.Insert(t), nil
		}
		return core.Delete(t), nil
	case "replace":
		parts := strings.SplitN(rest, "/", 2)
		if len(parts) != 2 {
			return core.UpdateOp{}, fmt.Errorf("usage: replace <tuple> / <tuple>")
		}
		t1, err := workload.ParseTuple(view, r.syms, strings.TrimSpace(parts[0]))
		if err != nil {
			return core.UpdateOp{}, err
		}
		t2, err := workload.ParseTuple(view, r.syms, strings.TrimSpace(parts[1]))
		if err != nil {
			return core.UpdateOp{}, err
		}
		return core.Replace(t1, t2), nil
	}
	return core.UpdateOp{}, fmt.Errorf("unknown update kind %q", kind)
}

// execute runs one command. A non-nil error means the command was
// malformed or could not run (the caller reports and skips it); a
// rejected update is a normal outcome and returns nil.
func (r *runner) execute(line string) error {
	fields := strings.SplitN(line, " ", 2)
	cmd := fields[0]
	rest := ""
	if len(fields) > 1 {
		rest = fields[1]
	}
	switch cmd {
	case "insert", "delete", "replace":
	default:
		// Any non-update command sees the database with every buffered
		// update already applied (and durable).
		r.flush()
	}
	switch cmd {
	case "show":
		fmt.Fprint(r.out, r.sess.Database().Format(r.syms))
	case "view":
		fmt.Fprint(r.out, r.sess.View().Format(r.syms))
	case "decide":
		sub := strings.SplitN(rest, " ", 2)
		if len(sub) != 2 {
			return fmt.Errorf("usage: decide <insert|delete|replace> <tuple>")
		}
		op, err := r.parseOp(sub[0], sub[1])
		if err != nil {
			return err
		}
		ctx, cancel := r.ctx()
		defer cancel()
		d, err := r.sess.DecideCtx(ctx, op)
		if err != nil {
			return r.describeTimeout(err)
		}
		fmt.Fprintf(r.out, "decide   %s %s: translatable=%v (%s)\n", sub[0], sub[1], d.Translatable, d.Reason)
	case "insert", "delete", "replace":
		op, err := r.parseOp(cmd, rest)
		if err != nil {
			return err
		}
		if r.batch > 1 {
			r.pending = append(r.pending, bufferedOp{cmd: cmd, op: op})
			if len(r.pending) >= r.batch {
				r.flush()
			}
			return nil
		}
		ctx, cancel := r.ctx()
		defer cancel()
		d, err := r.sess.ApplyCtx(ctx, op)
		r.report(cmd, d, err)
		if err != nil && !errors.Is(err, core.ErrRejected) {
			return r.describeTimeout(err)
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// report prints an applied or rejected update's outcome; other errors
// are the caller's to report.
func (r *runner) report(cmd string, d *core.Decision, err error) {
	switch {
	case errors.Is(err, core.ErrRejected):
		fmt.Fprintf(r.out, "%-8s rejected: %s\n", cmd, d.Reason)
	case err == nil:
		fmt.Fprintf(r.out, "%-8s ok (%s)\n", cmd, d.Reason)
	}
}

// flush applies the buffered updates as one store group commit — one
// journal write and one fsync — and reports each outcome in submission
// order. Per-op
// failures (beyond ordinary rejections) no longer have their script
// line at hand, so they are reported here with the command text and
// counted toward the script's exit status.
func (r *runner) flush() {
	buffered := r.pending
	r.pending = nil
	if len(buffered) == 0 {
		return
	}
	// One timeout bounds the whole flush: the group shares its fate.
	ctx, cancel := r.ctx()
	defer cancel()
	ops := make([]store.BatchOp, len(buffered))
	for i, b := range buffered {
		ops[i] = store.BatchOp{Ctx: ctx, Op: b.op}
	}
	items, err := r.st.ApplyOpsCtx(store.Ops(ops), nil)
	for i, it := range items {
		r.report(buffered[i].cmd, it.Decision, it.Err)
		if it.Err != nil && !errors.Is(it.Err, core.ErrRejected) {
			r.errs++
			fmt.Fprintf(r.out, "batch: %s: error: %v\n", buffered[i].cmd, r.describeTimeout(it.Err))
		}
	}
	if err != nil {
		r.errs++
		fmt.Fprintf(r.out, "batch: error: %v\n", err)
	}
}

func (r *runner) describeTimeout(err error) error {
	if errors.Is(err, core.ErrBudgetExceeded) {
		return fmt.Errorf("decision timed out after %v: %w", r.timeout, err)
	}
	return err
}
