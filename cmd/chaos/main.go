// Command chaos sweeps seed-reproducible fault schedules through the
// self-healing serve pipeline (internal/chaos) and exits non-zero on
// any invariant violation: an acknowledged op lost after a power cut,
// or a final state that diverges from a serial fault-free oracle.
//
// Usage:
//
//	chaos [-seeds N] [-seed S] [-ops N] [-v]
//
// With -seed the runner executes that single generated schedule;
// otherwise it runs five canonical per-kind schedules (one per fault
// kind, each required to trigger its recovery path) followed by a
// sweep of -seeds generated schedules. When a schedule fails, the
// runner minimizes it with chaos.Minimize — re-running the pipeline as
// the failure predicate — and prints the reduced schedule as JSON, so
// the repro can be pasted straight into a regression test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/constcomp/constcomp/internal/chaos"
	"github.com/constcomp/constcomp/internal/obs"
)

// config is the runner's parsed flag set, split out so tests can drive
// run without the global flag state.
type config struct {
	seeds   int
	seed    uint64
	ops     int
	verbose bool
}

// canonical returns one hand-written schedule per fault kind; each
// must provably drive its recovery path (checked in run).
func canonical(ops int) []chaos.Schedule {
	return []chaos.Schedule{
		{Seed: 101, Ops: ops, Storage: []chaos.StorageFault{{Kind: chaos.WriteFault, At: 2}}},
		{Seed: 102, Ops: ops, Storage: []chaos.StorageFault{{Kind: chaos.SyncFault, At: 2}}},
		{Seed: 103, Ops: ops, Storage: []chaos.StorageFault{{Kind: chaos.TornWrite, At: 2, Keep: 7}}},
		{Seed: 104, Ops: ops, Storage: []chaos.StorageFault{{Kind: chaos.PowerLoss, At: 2}}},
		{Seed: 106, Ops: ops, QueueSat: true,
			Storage: []chaos.StorageFault{{Kind: chaos.SyncFault, At: 1}}},
	}
}

func run(cfg config, out, errw io.Writer) int {
	var schedules []chaos.Schedule
	if cfg.seed != 0 {
		schedules = []chaos.Schedule{chaos.Generate(cfg.seed, cfg.ops)}
	} else {
		schedules = canonical(cfg.ops)
		for s := uint64(1); s <= uint64(cfg.seeds); s++ {
			schedules = append(schedules, chaos.Generate(s, cfg.ops))
		}
	}

	start := obs.NowNS()
	var resurrections, retries int64
	var acked, rejected, shed int
	for i, s := range schedules {
		rep, err := chaos.Run(s)
		if err != nil {
			fmt.Fprintf(errw, "chaos: schedule %d could not run: %v\n", i, err)
			return 2
		}
		if rep.Violation != "" {
			fmt.Fprintf(errw, "chaos: schedule %d VIOLATION: %s\n", i, rep.Violation)
			min := chaos.Minimize(s, func(c chaos.Schedule) bool {
				r, err := chaos.Run(c)
				return err == nil && r.Violation != ""
			}, 12)
			js, _ := json.MarshalIndent(min, "", "  ")
			fmt.Fprintf(errw, "chaos: minimized repro schedule:\n%s\n", js)
			return 1
		}
		if cfg.verbose {
			fmt.Fprintf(out,
				"schedule %3d seed=%-4d acked=%-3d rejected=%-3d shed=%-3d resurrections=%d retries=%d\n",
				i, s.Seed, rep.Acked, rep.Rejected, rep.Shed, rep.Resurrections, rep.Retries)
		}
		resurrections += rep.Resurrections
		retries += rep.Retries
		acked += rep.Acked
		rejected += rep.Rejected
		shed += rep.Shed
	}
	elapsedMS := (obs.NowNS() - start) / 1e6

	fmt.Fprintf(out,
		"chaos: %d schedules ok in %dms: %d acked, %d rejected, %d shed, %d resurrections, %d retries\n",
		len(schedules), elapsedMS, acked, rejected, shed, resurrections, retries)
	if cfg.seed == 0 {
		// The canonical set guarantees at least one resurrection and one
		// shed; an all-green sweep without them means the harness stopped
		// exercising the heal and admission paths.
		if resurrections == 0 {
			fmt.Fprintln(errw, "chaos: sweep drove zero resurrections — heal path never fired")
			return 1
		}
		if shed == 0 {
			fmt.Fprintln(errw, "chaos: sweep drove zero sheds — bounded admission never fired")
			return 1
		}
	}
	return 0
}

func main() {
	seeds := flag.Int("seeds", 100, "number of generated schedules to sweep")
	seed := flag.Uint64("seed", 0, "run only the schedule generated from this seed")
	ops := flag.Int("ops", 40, "workload ops per schedule")
	verbose := flag.Bool("v", false, "print a line per schedule")
	flag.Parse()
	os.Exit(run(config{seeds: *seeds, seed: *seed, ops: *ops, verbose: *verbose},
		os.Stdout, os.Stderr))
}
