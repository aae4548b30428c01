package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunSweep drives the runner the way the chaos-smoke CI job does:
// canonical per-kind schedules plus a small generated sweep, exit 0,
// and a summary proving the heal and admission paths both fired.
func TestRunSweep(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(config{seeds: 10, ops: 30}, &out, &errw); code != 0 {
		t.Fatalf("run exited %d:\n%s%s", code, out.String(), errw.String())
	}
	sum := out.String()
	if !strings.Contains(sum, "schedules ok") {
		t.Errorf("missing summary line:\n%s", sum)
	}
	// Whole counts only: "20 resurrections" holds the substring
	// "0 resurrections".
	if regexp.MustCompile(`\b0 (resurrections|shed)\b`).MatchString(sum) {
		t.Errorf("sweep failed to exercise heal or admission:\n%s", sum)
	}
}

// TestRunSingleSeed reproduces one generated schedule by seed, the
// workflow a failing sweep hands to the developer.
func TestRunSingleSeed(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(config{seed: 17, ops: 30}, &out, &errw); code != 0 {
		t.Fatalf("run exited %d:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "1 schedules ok") {
		t.Errorf("single-seed run summary:\n%s", out.String())
	}
}

// TestRunVerbose prints one line per schedule.
func TestRunVerbose(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(config{seeds: 2, ops: 20, verbose: true}, &out, &errw); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, errw.String())
	}
	// 5 canonical + 2 generated schedule lines plus the summary.
	if got := strings.Count(out.String(), "schedule "); got != 7 {
		t.Errorf("verbose run printed %d schedule lines, want 7:\n%s", got, out.String())
	}
}
