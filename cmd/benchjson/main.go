// Command benchjson converts `go test -bench` output (read from stdin or
// a file argument) into a JSON array of benchmark records, so benchmark
// runs can be committed and diffed (see the Makefile's bench target,
// which writes BENCH.json).
//
// With -compare it becomes a regression gate instead:
//
//	benchjson -compare baseline.json [-threshold 0.30] [-filter '^BenchmarkRel'] new.json
//
// Both files are JSON arrays as written by the convert mode. Benchmarks
// are matched by name and GOMAXPROCS; repeated runs of one benchmark
// (go test -count=N) collapse to their fastest before comparing, and
// any match whose ns/op or allocs/op grew by more than the threshold
// fails the run (exit 1); a baseline recorded without allocs/op gates
// ns/op alone. A gated row whose fresh ns/op or allocs/op is below half
// its baseline gets a STALE line: its gate has lost its bite until the
// baseline is re-recorded. STALE is advisory and never changes the exit
// code. A missing baseline is advisory-only: the comparison is skipped
// with exit 0, so the gate can bootstrap on branches that have never
// recorded one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Record is one benchmark result line.
type Record struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

func main() {
	compare := flag.String("compare", "", "baseline JSON file; switch to regression-gate mode against the new JSON (file argument or stdin)")
	threshold := flag.Float64("threshold", 0.30, "with -compare: maximum allowed relative ns/op and allocs/op growth")
	filter := flag.String("filter", "", "with -compare: regexp restricting which benchmark names are gated")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, flag.Arg(0), *threshold, *filter, os.Stdout))
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	recs, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parseBench converts `go test -bench` text into records.
func parseBench(in io.Reader) ([]Record, error) {
	recs := []Record{} // non-nil so no-input still marshals as []
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		rec := Record{Name: fields[0], Procs: 1}
		if i := strings.LastIndex(rec.Name, "-"); i > 0 {
			if p, err := strconv.Atoi(rec.Name[i+1:]); err == nil {
				rec.Name, rec.Procs = rec.Name[:i], p
			}
		}
		var err error
		if rec.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		if rec.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "B/op":
				rec.BytesPerOp, _ = strconv.ParseInt(fields[i], 10, 64)
			case "allocs/op":
				rec.AllocsPerOp, _ = strconv.ParseInt(fields[i], 10, 64)
			}
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// readRecords loads a JSON record array.
func readRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// runCompare gates newPath against the baseline, returning the exit
// code. newPath "" or "-" reads the new records as JSON from stdin.
func runCompare(basePath, newPath string, threshold float64, filter string, w io.Writer) int {
	base, err := readRecords(basePath)
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "benchjson: baseline %s missing; comparison is advisory-only on the first run\n", basePath)
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var cur []Record
	if newPath == "" || newPath == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err == nil {
			err = json.Unmarshal(data, &cur)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
	} else if cur, err = readRecords(newPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	regressions, err := compareRecords(base, cur, threshold, filter, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) regressed more than %.0f%%\n", regressions, threshold*100)
		return 1
	}
	return 0
}

// bestRuns collapses duplicate (name, procs) records — as produced by
// `go test -count=N` — to the one with the lowest ns/op, preserving
// first-appearance order. Scheduling and GC noise on a loaded machine
// only ever slows a benchmark down, so min-of-N is the stable estimator
// the regression gate compares.
func bestRuns(recs []Record) []Record {
	idx := make(map[string]int, len(recs))
	out := recs[:0:0]
	for _, r := range recs {
		key := fmt.Sprintf("%s-%d", r.Name, r.Procs)
		if i, ok := idx[key]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		idx[key] = len(out)
		out = append(out, r)
	}
	return out
}

// compareRecords prints a delta table and returns how many gated
// benchmarks regressed past the threshold, in ns/op or in allocs/op
// (the latter only where the baseline records allocations).
// Benchmarks present on only one side are reported but never fail the
// gate. Repeated runs of the same benchmark on either side collapse to
// their fastest (see bestRuns), so the fresh side can be generated
// with -count=N.
func compareRecords(base, cur []Record, threshold float64, filter string, w io.Writer) (int, error) {
	base, cur = bestRuns(base), bestRuns(cur)
	var re *regexp.Regexp
	if filter != "" {
		var err error
		if re, err = regexp.Compile(filter); err != nil {
			return 0, fmt.Errorf("bad -filter: %w", err)
		}
	}
	old := make(map[string]Record, len(base))
	for _, r := range base {
		old[fmt.Sprintf("%s-%d", r.Name, r.Procs)] = r
	}
	regressions := 0
	seen := make(map[string]bool, len(cur))
	var fresh []string
	for _, r := range cur {
		if re != nil && !re.MatchString(r.Name) {
			continue
		}
		key := fmt.Sprintf("%s-%d", r.Name, r.Procs)
		seen[key] = true
		b, ok := old[key]
		if !ok {
			fmt.Fprintf(w, "%-40s %12.1f ns/op  (new, not gated)\n", r.Name, r.NsPerOp)
			fresh = append(fresh, r.Name)
			continue
		}
		delta := growth(b.NsPerOp, r.NsPerOp)
		allocs := ""
		verdict := "ok"
		if b.AllocsPerOp > 0 {
			ad := growth(float64(b.AllocsPerOp), float64(r.AllocsPerOp))
			allocs = fmt.Sprintf("  %d -> %d allocs/op %+6.1f%%", b.AllocsPerOp, r.AllocsPerOp, ad*100)
			if ad > threshold {
				verdict = "REGRESSION (allocs)"
			}
		}
		if delta > threshold {
			verdict = "REGRESSION"
		}
		if verdict != "ok" {
			regressions++
		}
		fmt.Fprintf(w, "%-40s %12.1f -> %12.1f ns/op  %+6.1f%%%s  %s\n", r.Name, b.NsPerOp, r.NsPerOp, delta*100, allocs, verdict)
		if stale(b, r) {
			fmt.Fprintf(w, "STALE %s: fresh %.1f ns/op, %d allocs/op is below half the baseline %.1f ns/op, %d allocs/op; re-record BENCH.json so the gate bites\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, b.NsPerOp, b.AllocsPerOp)
		}
	}
	for _, r := range base {
		if re != nil && !re.MatchString(r.Name) {
			continue
		}
		key := fmt.Sprintf("%s-%d", r.Name, r.Procs)
		if !seen[key] {
			fmt.Fprintf(w, "%-40s gone from the new run (not gated)\n", r.Name)
		}
	}
	// Name the benchmarks with no baseline in one summary line: a fresh
	// benchmark silently passing the gate is exactly how an unrecorded
	// baseline goes unnoticed until the first regression it can't catch.
	if len(fresh) > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) have no baseline (advisory, rerecord BENCH.json to gate them): %s\n",
			len(fresh), strings.Join(fresh, ", "))
	}
	return regressions, nil
}

// stale reports a fresh reading below half its baseline in ns/op, or in
// allocs/op where the baseline records them: a regression that doubled
// the cost would still pass that row's gate.
func stale(base, cur Record) bool {
	return cur.NsPerOp < base.NsPerOp/2 || base.AllocsPerOp > 0 && 2*cur.AllocsPerOp < base.AllocsPerOp
}

// growth is cur's relative growth over base; a zero base never grows.
func growth(base, cur float64) float64 {
	if base <= 0 {
		return 0
	}
	return cur/base - 1
}
