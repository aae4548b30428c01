package bench

// The benchmark's entry point. It is a test file because the network workload
// needs goroutines — the HTTP server and one per client connection —
// and the repository's invariant suite (cmd/constvet, whose rawgo check
// confines go statements to sanctioned sites) does not lint test files.
// run.sh builds this package with `go test -c` and runs the binary:
// with --workload or --compare, TestMain runs the benchmark and exits;
// without them it runs the unit tests.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/constcomp/constcomp/internal/obs"
)

var (
	flagWorkload = flag.String("workload", "", "workload to run, or all (unset: run the unit tests)")
	flagSeed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	flagSeconds  = flag.Int("seconds", 30, "run length: a run applies the workload's calibrated ops-per-second times this many ops")
	flagTrace    = flag.Int("trace", 0, "1: a traced run, printing the per-layer metrics")
	flagOut      = flag.String("out", "", "append each run's result to this JSON-lines file (traced runs also write <out>.<workload>.seed<n>.spans.jsonl)")
	flagCompare  = flag.String("compare", "", "a,b: compare two --out result sets against the bounds in BENCHMARK.json")
	flagWorkDir  = flag.String("workdir", ".bench_build", "directory for each run's scratch files")
)

func TestMain(m *testing.M) {
	flag.Parse()
	switch {
	case *flagCompare != "":
		os.Exit(compareMain(*flagCompare))
	case *flagWorkload != "":
		os.Exit(benchMain())
	}
	os.Exit(m.Run())
}

// gateError is a failed correctness check: the run's metrics are void.
type gateError struct{ err error }

func (g gateError) Error() string { return "correctness gate: " + g.err.Error() }
func (g gateError) Unwrap() error { return g.err }

func benchMain() int {
	specs := Specs
	if *flagWorkload != "all" {
		spec, ok := SpecByName(*flagWorkload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *flagWorkload)
			return 2
		}
		specs = []Spec{spec}
	}
	if *flagSeconds < 1 || (*flagTrace != 0 && *flagTrace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	code := 0
	for _, spec := range specs {
		res, spans, err := runOne(spec, *flagSeed, *flagSeconds, *flagTrace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", spec.Name, *flagSeed, err)
			var g gateError
			if !errors.As(err, &g) {
				return 2
			}
			code = 1
			if res == nil { // the gate failed in setup, before any timed op
				res = &Result{}
			}
		}
		if *flagOut != "" {
			rec := Record{Workload: spec.Name, Seed: *flagSeed, Trace: *flagTrace == 1, Result: *res}
			if err := AppendRecord(*flagOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			if spans != nil {
				if err := writeSpans(fmt.Sprintf("%s.%s.seed%d.spans.jsonl", *flagOut, spec.Name, *flagSeed), spans); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
			}
		}
		if err := WriteResult(os.Stdout, *res); err != nil {
			return 2
		}
	}
	return code
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// harness is one running instance of a workload: the Env plus, on the
// network workload, the HTTP server and client connections.
type harness struct {
	env       *Env
	hs        *http.Server
	handler   *Handler
	served    chan error
	clients   []*NetClient
	journaled int // ops the server journaled so far
}

// start sets a workload up — instance, store, pipeline or server
// — and warms it with Spec.WarmOps ops. Everything it does is setup_s.
func start(spec Spec, seed int64, dir string, keepDB bool) (*harness, error) {
	env, err := Setup(spec, seed, dir, keepDB)
	if err != nil {
		return nil, err
	}
	h := &harness{env: env}
	if spec.Net {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			env.Close()
			return nil, err
		}
		h.handler = &Handler{Inner: env.Net.Handler()}
		h.hs = &http.Server{Handler: h.handler, ConnContext: env.Net.ConnContext}
		h.served = make(chan error, 1)
		go func() { h.served <- h.hs.Serve(ln) }()
		base := "http://" + ln.Addr().String()
		for i := range env.Clients {
			h.clients = append(h.clients, NewNetClient(env, i, base, seed))
		}
	}
	ph, err := h.run(spec.WarmOps, 0, nil)
	if err == nil {
		if ferr := ph.Failures(); ferr != nil {
			err = gateError{ferr}
		}
	}
	if err != nil {
		h.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return h, nil
}

// run drives n update ops through the workload's clients and returns
// what they measured. With limitNS > 0 the clients stop submitting once
// that much time has passed, so a run of a much slower program still
// ends in bounded time.
func (h *harness) run(n int, limitNS int64, sp *Spans) (*Phase, error) {
	var deadline int64
	if limitNS > 0 {
		deadline = obs.NowNS() + limitNS
	}
	if !h.env.Spec.Net {
		ph := &Phase{}
		h.env.RunInProc(n, deadline, ph, sp)
		return ph, nil
	}
	phases := make([]*Phase, len(h.clients))
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	t0 := obs.NowNS()
	for i, c := range h.clients {
		phases[i] = &Phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Run(n/len(h.clients), deadline, phases[i], sp)
		}()
	}
	wg.Wait()
	ph := &Phase{StartNS: t0, WallNS: obs.SinceNS(t0)}
	for _, p := range phases {
		ph.Merge(p)
	}
	h.journaled += ph.Journaled
	return ph, errors.Join(errs...)
}

// readIdle runs the idle-read phase on the open, quiet system.
func (h *harness) readIdle(sp *Spans) (*Phase, error) {
	rd := &Phase{}
	if h.env.Spec.Net {
		return rd, ReadIdle(func() error { return h.clients[0].read(rd, sp) })
	}
	return rd, ReadIdle(func() error {
		h.env.ReadInProc(rd, sp)
		return nil
	})
}

// check is the correctness gate on the live system.
func (h *harness) check() error {
	if h.env.Spec.Net {
		return h.clients[0].CheckServed(uint64(h.journaled))
	}
	return h.env.CheckPublished()
}

// stop shuts everything down and waits for every goroutine start began.
func (h *harness) stop() error {
	var err error
	if h.hs != nil {
		for _, c := range h.clients {
			c.Close()
		}
		err = h.hs.Shutdown(context.Background())
		if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if cerr := h.env.Close(); err == nil {
		err = cerr
	}
	return err
}

// runOne runs one workload once and returns its result; a traced run
// also returns its spans.
func runOne(spec Spec, seed int64, seconds int, trace bool) (*Result, []Span, error) {
	work, err := NewWorkDir(*flagWorkDir)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	n := spec.OpsPerSecond * seconds
	limitNS := int64(phaseStretch*seconds) * 1e9
	res, err := runUntraced(spec, seed, n, limitNS, work)
	if err != nil || !trace {
		return res, nil, err
	}
	return runTraced(spec, seed, n, limitNS, work, res.Metrics["ops_per_s"].Value)
}

// stealPeriod is how often sampleSteal reads /proc/stat: often enough
// to place a stolen stretch within a time segment of a second or two.
const stealPeriod = 50 * time.Millisecond

// sampleSteal reads the host's steal time every stealPeriod until the
// returned function is called; that function stops the sampler, waits
// for it to exit, and returns the readings.
func sampleSteal() func() StealLog {
	quit := make(chan struct{})
	out := make(chan StealLog, 1)
	go func() {
		log := make(StealLog, 0, 4096)
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			if s, ok := ReadSteal(); ok {
				log = append(log, s)
			}
			select {
			case <-quit:
				if s, ok := ReadSteal(); ok {
					log = append(log, s)
				}
				out <- log
				return
			case <-tick.C:
			}
		}
	}()
	return func() StealLog {
		close(quit)
		return <-out
	}
}

// A run sets its workload up at least minSetups times and for at least
// setupNS, up to maxSetups; setup_s is the median over the quiet ones.
const (
	minSetups = 5
	maxSetups = 25
	setupNS   = 1_000_000_000
)

// phaseStretch caps a timed phase at this many times --seconds, so that
// a traced run, which times the phase twice, still ends within three
// minutes at --seconds 30 however slow the program is.
const phaseStretch = 2

// runUntraced sets the workload up several times, runs the timed phase
// on the last setup, and checks the served and the recovered view.
func runUntraced(spec Spec, seed int64, n int, limitNS int64, work string) (*Result, error) {
	var setupS, setupSteal []float64
	var h *harness
	for begin := obs.NowNS(); h == nil; {
		// Each setup starts from a collected heap, so the previous one's
		// garbage is not swept on this one's clock.
		runtime.GC()
		s0, _ := ReadSteal()
		t0 := obs.NowNS()
		hi, err := start(spec, seed, SubDir(work, len(setupS)), false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		t1 := obs.NowNS()
		s1, _ := ReadSteal()
		setupS = append(setupS, float64(t1-t0)/1e9)
		setupSteal = append(setupSteal, StealLog{s0, s1}.Share(t0, t1))
		if len(setupS) < maxSetups && (len(setupS) < minSetups || obs.SinceNS(begin) < setupNS) {
			if err := hi.stop(); err != nil {
				return nil, err
			}
			continue
		}
		h = hi
	}

	disk0 := h.env.Probe.Counts()
	stopSteal := sampleSteal()
	ph, err := h.run(n, limitNS, nil)
	steal := stopSteal()
	if err != nil {
		h.stop()
		return nil, err
	}
	disk := h.env.Probe.Counts().Sub(disk0)
	heap := HeapMB()
	res := &Result{Attempted: ph.Attempted, Failed: ph.Failed, Metrics: map[string]Metric{}}
	gate := h.check()
	if err := h.stop(); err != nil {
		return nil, err
	}
	if gate == nil {
		gate = h.env.CheckRecovered()
	}
	if gate == nil {
		gate = ph.Failures()
	}
	if gate != nil {
		return res, gateError{gate}
	}
	vals, err := EndToEndValues(ph, steal, setupS, setupSteal, disk, heap)
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = metricSet(EndToEnd, vals); err != nil {
		return nil, err
	}
	res.Correct = true
	summarize(spec, seed, ph, steal, nil, nil, res, EndToEnd)
	return res, nil
}

// runTraced runs the timed phase again on a fresh setup with every
// layer's metrics and the span buffer installed, then idle reads, timed
// recoveries and the serial replay. untracedOPS is the untraced phase's
// ops_per_s.
func runTraced(spec Spec, seed int64, n int, limitNS int64, work string, untracedOPS float64) (*Result, []Span, error) {
	h, err := start(spec, seed, SubDir(work, maxSetups), true)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	sp := NewSpans(8*n + 1<<16)
	reg := obs.NewRegistry()
	Instrument(reg)
	h.env.Probe.Trace(sp)
	if h.handler != nil {
		h.handler.Trace(sp)
	}
	disk0, before := h.env.Probe.Counts(), ReadProc()
	stopSteal := sampleSteal()
	ph, err := h.run(n, limitNS, sp)
	steal := stopSteal()
	after, disk := ReadProc(), h.env.Probe.Counts().Sub(disk0)
	Instrument(nil)
	h.env.Probe.Trace(nil)
	if h.handler != nil {
		h.handler.Trace(nil)
	}
	if err != nil {
		h.stop()
		return nil, nil, err
	}
	rd, err := h.readIdle(sp)
	if err != nil {
		h.stop()
		return nil, nil, err
	}
	res := &Result{Attempted: ph.Attempted + rd.Attempted, Failed: ph.Failed + rd.Failed, Metrics: map[string]Metric{}}
	gate := h.check()
	if err := h.stop(); err != nil {
		return nil, nil, err
	}
	var recs []Recovery
	var replayUS []float64
	if gate == nil {
		recs, gate = h.env.Recover(sp)
	}
	if gate == nil {
		replayUS, gate = h.env.Replay(sp)
	}
	if gate == nil {
		gate = ph.Failures()
	}
	if gate == nil {
		gate = rd.Failures()
	}
	if gate != nil {
		return res, nil, gateError{gate}
	}
	vals := PerLayerValues(&Traced{
		Phase: ph, Reg: reg, Spans: sp.All(), Disk: disk, Before: before, After: after,
		Reads: rd, Recs: recs, ReplayUS: replayUS, Steal: steal, UntracedOPS: untracedOPS,
	})
	if res.Metrics, err = metricSet(PerLayer, vals); err != nil {
		return nil, nil, err
	}
	res.Correct = true
	if d := sp.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d spans did not fit the buffer\n", d)
	}
	summarize(spec, seed, ph, steal, rd, recs, res, PerLayer)
	return res, sp.All(), nil
}

// summarize prints a human-readable account of a run to stderr, with the
// sample count behind every latency and the host steal the timed phase
// saw. rd and recs are nil for an untraced run.
func summarize(spec Spec, seed int64, ph *Phase, steal StealLog, rd *Phase, recs []Recovery, res *Result, defs []Def) {
	w := os.Stderr
	idle := 0
	if rd != nil {
		idle = len(rd.Reads)
	}
	fmt.Fprintf(w, "bench: %s seed %d: %d ops acked in %.2fs; samples: %d updates, %d reads under load, %d idle reads, %d recoveries; %d attempted, %d failed\n",
		spec.Name, seed, ph.Acked, float64(ph.WallNS)/1e9, len(ph.Updates), len(ph.Reads), idle, len(recs), res.Attempted, res.Failed)
	fmt.Fprintf(w, "bench: host steal %.1f%% of CPU time over the timed phase; timings from %d of %d time segments\n",
		100*steal.Share(ph.StartNS, ph.StartNS+ph.WallNS), len(quietSegments(ph, steal)), timeSegments)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
}

func compareMain(arg string) int {
	pathA, pathB, ok := strings.Cut(arg, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: --compare wants two result sets, a,b")
		return 2
	}
	cfg, err := LoadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := LoadRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := LoadRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-14s %-18s %5s %14s %5s %14s %8s %6s\n", "workload", "metric", "runs", "median a", "runs", "median b", "worse", "bound")
	for _, d := range Compare(cfg, a, b) {
		verdict := ""
		if d.Exceeds() {
			verdict = "  EXCEEDS BOUND"
			bad++
		}
		fmt.Printf("%-14s %-18s %5d %14.4f %5d %14.4f %7.2f%% %5.1f%%%s\n",
			d.Workload, d.Metric, d.NA, d.A, d.NB, d.B, 100*d.Worse, 100*d.Bound, verdict)
	}
	if bad > 0 {
		fmt.Printf("%d (workload, metric) pairs worse than their bound\n", bad)
		return 1
	}
	return 0
}
