package bench

import (
	"math"
	"reflect"
	"testing"
)

func TestParseCPULine(t *testing.T) {
	s, ok := parseCPULine("cpu  100 5 20 800 10 1 2 12 7 0")
	if !ok || s.Steal != 12 || s.Total != 950 {
		t.Fatalf("got %+v, %v; want steal 12 of 950 ticks", s, ok)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, ok := parseCPULine(bad); ok {
			t.Errorf("parsed %q", bad)
		}
	}
	if _, ok := ReadSteal(); !ok {
		t.Log("no /proc/stat here: every interval counts as quiet")
	}
}

// TestStealShareAndQuiet checks the steal share of intervals between
// readings and the choice of quiet intervals, with its fallback to the
// least-stolen quarter.
func TestStealShareAndQuiet(t *testing.T) {
	log := StealLog{{NS: 0, Steal: 0, Total: 0}, {NS: 10, Steal: 0, Total: 100}, {NS: 20, Steal: 30, Total: 200}}
	for _, c := range []struct {
		t0, t1 int64
		want   float64
	}{
		{0, 10, 0},
		{10, 20, 0.3},
		{0, 20, 0.15},
		{12, 18, 0.3}, // widened to the readings around it
		{5, 5, 0},
	} {
		if got := log.Share(c.t0, c.t1); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Share(%d, %d) = %g, want %g", c.t0, c.t1, got, c.want)
		}
	}
	if got := (StealLog{}).Share(0, 10); got != 0 {
		t.Errorf("an empty log gave share %g", got)
	}

	for _, c := range []struct {
		shares []float64
		want   []int
	}{
		{[]float64{0, 0.5, 0.01, 0.3}, []int{0, 2}},
		{[]float64{0.1, 0.5, 0.01, 0.3, 0.2}, []int{0, 2}}, // least-stolen quarter
		{[]float64{0.05, 0.05, 0.05, 0.05}, []int{0}},
		{[]float64{0.3, 0.2, 0.5, 0.01, 0.3, 0.05, 0.4, 0.1, 0.6}, []int{3, 5, 7}},
		{[]float64{0, 0, 0}, []int{0, 1, 2}},
	} {
		if got := Quiet(c.shares); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Quiet(%v) = %v, want %v", c.shares, got, c.want)
		}
	}
	if got := QuietMedian([]float64{1, 9, 2, 8}, []float64{0, 0.3, 0, 0.2}); got != 1.5 {
		t.Errorf("QuietMedian = %g, want 1.5", got)
	}
}

// TestEndToEndSkipsStolenSegments runs the end-to-end metric math on a
// phase whose middle third ran while the host took 20% of the CPUs:
// ops are three times slower and five times later there. With the steal
// log, those segments are left out and every timing reads the quiet
// rate; without it, the p99 lands in the stolen stretch.
func TestEndToEndSkipsStolenSegments(t *testing.T) {
	ph := &Phase{StartNS: 0, Acked: 3000}
	var steal StealLog
	at := int64(0)
	stolen := func(i int) bool { return i >= 1000 && i < 2000 }
	for i := 0; i < 3000; i++ {
		lat, gap := 1.0, int64(1e6)
		if stolen(i) {
			lat, gap = 5, 3e6
		}
		at += gap
		ph.Updates = append(ph.Updates, Sample{DoneNS: at, MS: lat, Ops: 1})
		s := StealSample{NS: at, Total: uint64(i + 1)}
		if len(steal) > 0 {
			s.Steal = steal[len(steal)-1].Steal
			if stolen(i) {
				s.Steal++ // 20% of the ticks: one in five
				s.Total = steal[len(steal)-1].Total + 5
			} else {
				s.Total = steal[len(steal)-1].Total + 1
			}
		}
		steal = append(steal, s)
	}
	v, err := EndToEndValues(ph, steal, []float64{2, 1, 9}, []float64{0, 0, 0.5}, ProbeCounts{Journal: 3000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 1.5, "ops_per_s": 1000, "update_p50_ms": 1, "update_p99_ms": 1, "disk_bytes_per_op": 1, "heap_mb": 1}
	for k, w := range want {
		if math.Abs(v[k]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, v[k], w)
		}
	}
	if v, _ := EndToEndValues(ph, nil, []float64{1}, []float64{0}, ProbeCounts{}, 1); v["update_p99_ms"] != 5 {
		t.Errorf("without a steal log update_p99_ms = %g, want 5 from the stolen stretch", v["update_p99_ms"])
	}
}
