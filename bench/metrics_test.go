package bench

import (
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json at the
// repository root declares exactly the workloads and metrics the code
// runs and prints, with the same units and directions, and bounds no
// looser than 25%.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	cfg, err := LoadConfig(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(Specs) {
		t.Fatalf("%d workloads declared, code has %d", len(cfg.Workloads), len(Specs))
	}
	for i, w := range cfg.Workloads {
		if w.Name != Specs[i].Name {
			t.Errorf("workload %d: declared %q, code has %q", i, w.Name, Specs[i].Name)
		}
	}
	if len(cfg.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics declared, code has %d", len(cfg.EndToEnd), len(EndToEnd))
	}
	for i, m := range cfg.EndToEnd {
		if m.Def != EndToEnd[i] {
			t.Errorf("end-to-end %d: declared %+v, code has %+v", i, m.Def, EndToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(cfg.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per-layer metrics declared, code has %d", len(cfg.PerLayer), len(PerLayer))
	}
	for i, m := range cfg.PerLayer {
		if m != PerLayer[i] {
			t.Errorf("per-layer %d: declared %+v, code has %+v", i, m, PerLayer[i])
		}
	}
}

// TestCompare checks the compare mode's median deltas and verdicts in
// both directions of "better".
func TestCompare(t *testing.T) {
	cfg := &Config{
		Workloads: []struct{ Name string }{{"w"}},
		EndToEnd: []Bound{
			{Def{"ops_per_s", "1/s", "higher"}, 0.1},
			{Def{"update_p50_ms", "ms", "lower"}, 0.1},
		},
	}
	rec := func(ops, lat float64) Record {
		return Record{Workload: "w", Result: Result{Correct: true, Metrics: map[string]Metric{
			"ops_per_s": {Value: ops}, "update_p50_ms": {Value: lat},
		}}}
	}
	a := []Record{rec(100, 10), rec(110, 11), rec(90, 9)}
	b := []Record{rec(85, 10.5), rec(95, 10.5), rec(89, 10.5)}
	got := Compare(cfg, a, b)
	if len(got) != 2 {
		t.Fatalf("%d deltas", len(got))
	}
	if d := got[0]; d.A != 100 || d.B != 89 || !d.Exceeds() || d.Worse < 0.109 || d.Worse > 0.111 {
		t.Errorf("ops_per_s: %+v, want an 11%% regression", d)
	}
	if d := got[1]; d.A != 10 || d.B != 10.5 || d.Exceeds() {
		t.Errorf("update_p50_ms: %+v, want a 5%% change within bound", d)
	}
	if d := Compare(cfg, a, nil)[0]; !d.Exceeds() {
		t.Errorf("a pair with no runs on one side must not pass: %+v", d)
	}
}
