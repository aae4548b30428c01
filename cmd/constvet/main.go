// Command constvet is the repository's invariant multichecker: it runs
// the internal/analysis suite (fsyncorder, mapiter, budgetloop,
// lockhold, deadlineflow, errflow, nilmetrics, rawgo, walltime, ...)
// over the given packages and exits non-zero on any unsuppressed
// diagnostic, or on a //constvet:allow that suppresses none (a stale
// allow).
//
// Usage:
//
//	constvet [-list] [-v] [-json] [-run name,name] [packages...]
//
// Packages default to ./.... Whatever the target patterns, the whole
// module is loaded once into a call graph so cross-package dataflow
// facts (may-block, budget discipline, fsync obligations) are complete.
// Intentional exceptions are annotated at the offending line with
// `//constvet:allow <name> -- reason`; -v prints the suppressed
// findings too, so exceptions stay auditable. -json emits every finding
// (suppressed included) as one JSON object per line for CI artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/constcomp/constcomp/internal/analysis"
)

// jsonFinding is the -json wire form: one object per line.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Pos      string `json:"pos"`
	Message  string `json:"message"`
	Allowed  bool   `json:"allowed"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "also print suppressed findings")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line (suppressed included)")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "constvet: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "constvet:", err)
		os.Exit(2)
	}
	prog, pkgs, err := analysis.LoadProgram(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "constvet:", err)
		os.Exit(2)
	}

	var findings []analysis.Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			fs, err := analysis.RunAnalyzer(a, prog, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "constvet:", err)
				os.Exit(2)
			}
			findings = append(findings, fs...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})

	enc := json.NewEncoder(os.Stdout)
	failed, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			failed++
		}
		switch {
		case *jsonOut:
			if err := enc.Encode(jsonFinding{
				Analyzer: f.Analyzer,
				Pos:      f.Pos.String(),
				Message:  f.Message,
				Allowed:  f.Suppressed,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "constvet:", err)
				os.Exit(2)
			}
		case !f.Suppressed || *verbose:
			fmt.Println(f)
		}
	}
	if *verbose || failed > 0 {
		fmt.Fprintf(os.Stderr, "constvet: %d finding(s), %d suppressed, %d package(s)\n",
			failed, suppressed, len(pkgs))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
