package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	text := `goos: linux
BenchmarkRelJoin100k-8   	     100	  11000000 ns/op	 5000000 B/op	    2000 allocs/op
BenchmarkRelProject   	    5000	    250000 ns/op
not a bench line
`
	recs, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[0].Name != "BenchmarkRelJoin100k" || recs[0].Procs != 8 || recs[0].NsPerOp != 11000000 || recs[0].AllocsPerOp != 2000 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Name != "BenchmarkRelProject" || recs[1].Procs != 1 {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestCompareRecords(t *testing.T) {
	base := []Record{
		{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1000},
		{Name: "BenchmarkRelProject", Procs: 1, NsPerOp: 1000},
		{Name: "BenchmarkOther", Procs: 1, NsPerOp: 1000},
		{Name: "BenchmarkRelGone", Procs: 1, NsPerOp: 1000},
	}
	cur := []Record{
		{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1200},    // +20%: ok
		{Name: "BenchmarkRelProject", Procs: 1, NsPerOp: 1400}, // +40%: regression
		{Name: "BenchmarkOther", Procs: 1, NsPerOp: 9000},      // filtered out
		{Name: "BenchmarkRelNew", Procs: 1, NsPerOp: 5},        // new: not gated
	}
	var out bytes.Buffer
	n, err := compareRecords(base, cur, 0.30, "^BenchmarkRel", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("regressions = %d, want 1:\n%s", n, out.String())
	}
	got := out.String()
	for _, want := range []string{"REGRESSION", "new, not gated", "gone from the new run"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "BenchmarkOther") {
		t.Errorf("filtered benchmark leaked into the gate:\n%s", got)
	}
}

func TestCompareRecordsGatesAllocs(t *testing.T) {
	base := []Record{
		{Name: "BenchmarkRelA", Procs: 1, NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkRelB", Procs: 1, NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkRelC", Procs: 1, NsPerOp: 1000}, // no allocs recorded
		{Name: "BenchmarkOther", Procs: 1, NsPerOp: 1000, AllocsPerOp: 10},
	}
	cur := []Record{
		{Name: "BenchmarkRelA", Procs: 1, NsPerOp: 900, AllocsPerOp: 14},   // +40% allocs: regression
		{Name: "BenchmarkRelB", Procs: 1, NsPerOp: 1000, AllocsPerOp: 12},  // +20% allocs: ok
		{Name: "BenchmarkRelC", Procs: 1, NsPerOp: 1000, AllocsPerOp: 500}, // zero baseline: not gated
		{Name: "BenchmarkOther", Procs: 1, NsPerOp: 1000, AllocsPerOp: 99}, // filtered out
	}
	var out bytes.Buffer
	n, err := compareRecords(base, cur, 0.30, "^BenchmarkRel", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("regressions = %d, want 1 (BenchmarkRelA's allocs):\n%s", n, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "BenchmarkRelA ") != strings.Contains(line, "REGRESSION (allocs)") {
			t.Errorf("allocs verdict on the wrong line: %q\n%s", line, out.String())
		}
	}
}

func TestCompareRecordsReportsStale(t *testing.T) {
	base := []Record{
		{Name: "BenchmarkRelNs", Procs: 1, NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkRelAllocs", Procs: 1, NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkRelFresh", Procs: 1, NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkRelNoAllocs", Procs: 1, NsPerOp: 1000},
		{Name: "BenchmarkOther", Procs: 1, NsPerOp: 1000},
	}
	cur := []Record{
		{Name: "BenchmarkRelNs", Procs: 1, NsPerOp: 400, AllocsPerOp: 10},    // ns/op below half: stale
		{Name: "BenchmarkRelAllocs", Procs: 1, NsPerOp: 900, AllocsPerOp: 4}, // allocs/op below half: stale
		{Name: "BenchmarkRelFresh", Procs: 1, NsPerOp: 500, AllocsPerOp: 5},  // exactly half: not stale
		{Name: "BenchmarkRelNoAllocs", Procs: 1, NsPerOp: 900, AllocsPerOp: 1},
		{Name: "BenchmarkOther", Procs: 1, NsPerOp: 10}, // filtered out: not gated
	}
	var out bytes.Buffer
	n, err := compareRecords(base, cur, 0.30, "^BenchmarkRel", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("regressions = %d, want 0 (STALE is advisory):\n%s", n, out.String())
	}
	var staleRows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "STALE "); ok {
			staleRows = append(staleRows, strings.SplitN(rest, ":", 2)[0])
		}
	}
	if got := strings.Join(staleRows, ","); got != "BenchmarkRelNs,BenchmarkRelAllocs" {
		t.Errorf("STALE rows = %q, want BenchmarkRelNs,BenchmarkRelAllocs:\n%s", got, out.String())
	}
}

func TestCompareRecordsNamesAdvisoryNewBenchmarks(t *testing.T) {
	base := []Record{{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1000}}
	cur := []Record{
		{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1000},
		{Name: "BenchmarkRelNewA", Procs: 1, NsPerOp: 5},
		{Name: "BenchmarkRelNewB", Procs: 1, NsPerOp: 7},
	}
	var out bytes.Buffer
	n, err := compareRecords(base, cur, 0.30, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("regressions = %d, want 0 (new benchmarks are advisory):\n%s", n, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "2 benchmark(s) have no baseline") {
		t.Errorf("advisory summary missing or unnumbered:\n%s", got)
	}
	for _, name := range []string{"BenchmarkRelNewA", "BenchmarkRelNewB"} {
		if !strings.Contains(got, name+",") && !strings.HasSuffix(strings.TrimSpace(got), name) && !strings.Contains(got, ", "+name) {
			t.Errorf("advisory summary does not name %s:\n%s", name, got)
		}
	}
}

func TestCompareRecordsKeepsFastestOfRepeatedRuns(t *testing.T) {
	base := []Record{{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1000}}
	// A -count=3 run where one repetition caught a scheduling hiccup:
	// the gate must compare the fastest repetition, not the noisy one.
	cur := []Record{
		{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1900},
		{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1050},
		{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1300},
	}
	var out bytes.Buffer
	n, err := compareRecords(base, cur, 0.30, "", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("regressions = %d, want 0 (min-of-N should pass):\n%s", n, out.String())
	}
	if got := strings.Count(out.String(), "BenchmarkRelJoin"); got != 1 {
		t.Errorf("benchmark printed %d times, want once:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "1050.0") {
		t.Errorf("fastest repetition not the one compared:\n%s", out.String())
	}
}

func TestRunCompareMissingBaselineIsAdvisory(t *testing.T) {
	dir := t.TempDir()
	newPath := filepath.Join(dir, "new.json")
	data, _ := json.Marshal([]Record{{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1}})
	if err := os.WriteFile(newPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := runCompare(filepath.Join(dir, "absent.json"), newPath, 0.30, "", &out); code != 0 {
		t.Fatalf("missing baseline exit code = %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "advisory") {
		t.Errorf("missing-baseline note absent:\n%s", out.String())
	}
}

func TestRunCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []Record) string {
		p := filepath.Join(dir, name)
		data, _ := json.Marshal(recs)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	basePath := write("base.json", []Record{{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 1000}})
	newPath := write("new.json", []Record{{Name: "BenchmarkRelJoin", Procs: 1, NsPerOp: 2000}})
	var out bytes.Buffer
	if code := runCompare(basePath, newPath, 0.30, "", &out); code != 1 {
		t.Fatalf("regression exit code = %d, want 1:\n%s", code, out.String())
	}
}
