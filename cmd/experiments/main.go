// Command experiments regenerates every experiment table of the
// reproduction (see DESIGN.md's per-experiment index and EXPERIMENTS.md
// for the recorded results): E1–E16 validate the paper's theorems and
// algorithms, A1–A3 are ablations of implementation choices.
//
// Usage:
//
//	experiments              # run everything
//	experiments -run E5,E7   # run selected experiments
//	experiments -quick       # smaller sweeps (CI-sized)
//	experiments -parallel 8  # 8-way parallel relational kernels
//	experiments -trace       # instrument every experiment
//
// -parallel n sets relation.Parallelism: n > 1 switches the joins,
// Project, SelectEq and FD-satisfaction scans to n worker goroutines
// (0 means GOMAXPROCS; inputs under 4096 tuples stay serial). Results
// are identical for any value — the complexity experiments' timings are
// meaningful only at the default -parallel=1.
//
// -trace instruments every subsystem through the obs layer: each
// experiment prints an instrumented-cost summary line (chase row
// visits, DPLL nodes, join probes, budget steps), some tables gain an
// instrumented-cost column, and the run ends with the full metrics
// report.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/constcomp/constcomp/internal/budget"
	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/logic"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/store"
)

// experiment is one runnable table.
type experiment struct {
	id    string
	title string
	run   func(cfg config)
}

// config carries global knobs into experiments.
type config struct {
	quick bool
	// reg is non-nil under -trace; tables use it via meter to add
	// instrumented-cost columns.
	reg *obs.Registry
}

var registry []experiment

func register(id, title string, run func(config)) {
	registry = append(registry, experiment{id: id, title: title, run: run})
}

func main() {
	runSpec := flag.String("run", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	list := flag.Bool("list", false, "list experiment ids and exit")
	par := flag.Int("parallel", 1, "relational kernel workers (0 = GOMAXPROCS; >1 enables parallel kernels)")
	trace := flag.Bool("trace", false, "instrument all subsystems and print per-experiment costs and the metrics report")
	flag.Parse()
	relation.Parallelism(*par)

	var reg *obs.Registry
	if *trace {
		reg = obs.NewRegistry()
		relation.SetMetrics(reg)
		chase.SetMetrics(reg)
		logic.SetMetrics(reg)
		budget.SetMetrics(reg)
		core.SetMetrics(reg)
		store.SetMetrics(reg)
	}

	sort.Slice(registry, func(i, j int) bool { return registry[i].id < registry[j].id })
	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*runSpec, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	cfg := config{quick: *quick, reg: reg}
	ran := 0
	for _, e := range registry {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		var before obs.Snapshot
		if reg != nil {
			before = reg.Snapshot()
		}
		start := obs.NowNS()
		e.run(cfg)
		if reg != nil {
			fmt.Printf("   cost: %s\n", costSummary(before, reg.Snapshot()))
		}
		fmt.Printf("-- %s done in %v --\n\n", e.id, time.Duration(obs.SinceNS(start)).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched -run; use -list")
		os.Exit(2)
	}
	if reg != nil {
		fmt.Println("== metrics ==")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

// costCounters are the headline counters of the per-experiment
// instrumented-cost summary line.
var costCounters = []struct{ label, name string }{
	{"chase-rows", "chase_instance_row_visits_total"},
	{"tableau-rows", "chase_tableau_row_visits_total"},
	{"dpll-nodes", "logic_dpll_nodes_total"},
	{"join-probes", "relation_join_probe_tuples_total"},
	{"budget-steps", "budget_steps_total"},
}

// costSummary renders the counter deltas one experiment produced.
func costSummary(before, after obs.Snapshot) string {
	var parts []string
	for _, c := range costCounters {
		if d := after.Counters[c.name] - before.Counters[c.name]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.label, d))
		}
	}
	if len(parts) == 0 {
		return "(no instrumented work)"
	}
	return strings.Join(parts, " ")
}

// costMeter reports per-row deltas of one counter, so a table can carry
// an instrumented-cost column next to wall time.
type costMeter struct {
	c    *obs.Counter
	last int64
}

// meter returns a delta meter over the named counter; with -trace off
// its cells read "-".
func (cfg config) meter(name string) *costMeter {
	if cfg.reg == nil {
		return &costMeter{}
	}
	return &costMeter{c: cfg.reg.Counter(name)}
}

// cell returns the counter's growth since the previous cell, averaged
// over reps runs ("-" when instrumentation is off).
func (m *costMeter) cell(reps int64) string {
	if m.c == nil {
		return "-"
	}
	v := m.c.Value()
	d := v - m.last
	m.last = v
	return fmt.Sprintf("%d", d/reps)
}

// timeIt reports the wall time of f averaged over reps runs.
func timeIt(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	start := obs.NowNS()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Duration(obs.SinceNS(start)) / time.Duration(reps)
}

// row prints aligned columns.
func row(cols ...interface{}) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%12v", c)
	}
	fmt.Println(strings.Join(parts, " "))
}
