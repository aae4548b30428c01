package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"

	"github.com/constcomp/constcomp/internal/chase"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line a run prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is a Result as stored in an --out result set, with the run it
// came from.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result
}

// Def declares a metric's unit and which direction is better.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var EndToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"update_p50_ms", "ms", "lower"},
	{"update_p99_ms", "ms", "lower"},
	{"disk_bytes_per_op", "B/op", "lower"},
	{"heap_mb", "MB", "lower"},
}

// PerLayer are the traced run's metrics, prefixed by the module they
// measure. A layer a workload never reaches reports 0.
var PerLayer = []Def{
	{"netserve.submit_handler_p50_us", "us", "lower"},
	{"netserve.submit_handler_p99_us", "us", "lower"},
	{"netserve.read_handler_p50_us", "us", "lower"},
	{"netserve.client_rtt_minus_handler_p50_us", "us", "lower"},
	{"netserve.wfq_wait_p50_us", "us", "lower"},
	{"serve.enqueue_p50_us", "us", "lower"},
	{"serve.enqueue_p99_us", "us", "lower"},
	{"serve.ops_per_batch", "ops", "higher"},
	{"serve.queue_depth_p50", "ops", "lower"},
	{"serve.seeds_per_op", "count", "lower"},
	{"serve.divergences", "count", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.view_read_p50_ms", "ms", "lower"},
	{"serve.view_read_p90_ms", "ms", "lower"},
	{"core.decides_per_op", "count", "lower"},
	{"core.chase_calls_per_op", "count", "lower"},
	{"core.inc_fallback_ratio", "ratio", "lower"},
	{"core.inc_rebuilds_per_kop", "count", "lower"},
	{"core.decision_cache_hit_ratio", "ratio", "higher"},
	{"core.decide_insert_p50_us", "us", "lower"},
	{"core.decide_delete_p50_us", "us", "lower"},
	{"core.decide_replace_p50_us", "us", "lower"},
	{"core.apply_insert_p50_us", "us", "lower"},
	{"core.apply_delete_p50_us", "us", "lower"},
	{"core.apply_replace_p50_us", "us", "lower"},
	{"core.replay_apply_p50_us", "us", "lower"},
	{"core.replay_apply_p99_us", "us", "lower"},
	{"chase.instance_runs_per_kop", "count", "lower"},
	{"chase.instance_row_visits_per_op", "count", "lower"},
	{"relation.project_in_tuples_per_op", "count", "lower"},
	{"relation.fdscan_tuples_per_op", "count", "lower"},
	{"relation.selecteq_scanned_per_op", "count", "lower"},
	{"store.write_p50_us", "us", "lower"},
	{"store.fsync_p50_us", "us", "lower"},
	{"store.fsync_p99_us", "us", "lower"},
	{"store.fsyncs_per_kop", "count", "lower"},
	{"store.syncdirs_per_kop", "count", "lower"},
	{"store.journal_bytes_per_op", "B/op", "lower"},
	{"store.snapshot_bytes_per_op", "B/op", "lower"},
	{"store.snapshots_per_kop", "count", "lower"},
	{"store.snapshot_write_p50_ms", "ms", "lower"},
	{"store.journal_append_p50_us", "us", "lower"},
	{"store.recover_ms", "ms", "lower"},
	{"store.recover_replayed_records", "count", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.alloc_bytes_per_op", "B/op", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_cycles_per_kop", "count", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// metricSet builds a Result's metrics from values keyed by name, taking
// units from defs; every def must have a value.
func metricSet(defs []Def, vals map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// HeapMB is HeapInuse in MB after two full collections.
func HeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// Segment counts. A timed phase is split into timeSegments time
// segments and its timings are taken over the quiet ones (steal.go).
// Per-layer read latencies and recovery times, taken on the idle system,
// are the median across medianSegments segments, a tail across
// tailSegments longer ones, so that a few stalled seconds move a
// minority of segments, not the result.
const (
	timeSegments   = 20
	medianSegments = 10
	tailSegments   = 3
)

// segments sorts samples by completion time and splits them into k runs
// of equal count.
func segments(xs []Sample, k int) [][]Sample {
	s := append([]Sample(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].DoneNS < s[j].DoneNS })
	out := make([][]Sample, k)
	for i := range out {
		out[i] = s[i*len(s)/k : (i+1)*len(s)/k]
	}
	return out
}

// SegmentLatency is the median over k time segments of q-quantile
// latency in each; q = 0.5 takes the segment median, a tail q enforces
// the MinBeyond rule in every segment.
func SegmentLatency(xs []Sample, k int, q float64) (float64, error) {
	var vals []float64
	for _, seg := range segments(xs, k) {
		ms := make([]float64, len(seg))
		for i, s := range seg {
			ms[i] = s.MS
		}
		if q == 0.5 {
			if len(ms) == 0 {
				return 0, fmt.Errorf("empty segment of %d samples", len(xs))
			}
			vals = append(vals, Median(ms))
			continue
		}
		v, err := TailPercentile(ms, q)
		if err != nil {
			return 0, fmt.Errorf("segment of %d samples: %w", len(ms), err)
		}
		vals = append(vals, v)
	}
	return Median(vals), nil
}

// segment is one time segment of a timed phase: the samples completed
// in it, from the previous segment's last reply to its own last.
type segment struct {
	startNS, endNS int64
	samples        []Sample
}

// quietSegments splits ph's update samples, in completion order, into
// timeSegments segments of equal count and keeps the quiet ones (Quiet)
// by the share of the CPUs' time steal records the host took in each.
func quietSegments(ph *Phase, steal StealLog) []segment {
	var all []segment
	var shares []float64
	prev := ph.StartNS
	for _, seg := range segments(ph.Updates, timeSegments) {
		if len(seg) == 0 {
			continue
		}
		end := seg[len(seg)-1].DoneNS
		all = append(all, segment{startNS: prev, endNS: end, samples: seg})
		shares = append(shares, steal.Share(prev, end))
		prev = end
	}
	var out []segment
	for _, i := range Quiet(shares) {
		out = append(out, all[i])
	}
	return out
}

// OpsPerSecond is the median over the quiet time segments of update ops
// acked per second.
func OpsPerSecond(ph *Phase, steal StealLog) float64 {
	var rates []float64
	for _, seg := range quietSegments(ph, steal) {
		ops := 0
		for _, s := range seg.samples {
			ops += s.Ops
		}
		if seg.endNS > seg.startNS {
			rates = append(rates, float64(ops)/(float64(seg.endNS-seg.startNS)/1e9))
		}
	}
	return Median(rates)
}

// QuietMedian is the median of the values whose interval was quiet
// (Quiet), given each value's steal share.
func QuietMedian(vals, shares []float64) float64 {
	var xs []float64
	for _, i := range Quiet(shares) {
		xs = append(xs, vals[i])
	}
	return Median(xs)
}

// RecoverMS is the median over medianSegments consecutive groups of
// recoveries of each group's mean time: a group spans enough wall time
// to average out sub-second stalls, the median over groups discards a
// stalled second.
func RecoverMS(recs []Recovery) float64 {
	var means []float64
	for i := 0; i < medianSegments; i++ {
		seg := recs[i*len(recs)/medianSegments : (i+1)*len(recs)/medianSegments]
		if len(seg) == 0 {
			continue
		}
		var sum float64
		for _, r := range seg {
			sum += r.MS
		}
		means = append(means, sum/float64(len(seg)))
	}
	return Median(means)
}

// EndToEndValues derives the end-to-end metrics of an untraced run from
// its timed phase, the host steal logged while it ran, each setup's time
// and steal share, the phase's disk counts, and the heap after it.
// update_p50_ms is the median over the quiet segments of each one's
// median; update_p99_ms is the p99 of the quiet segments' samples pooled.
func EndToEndValues(ph *Phase, steal StealLog, setupS, setupSteal []float64, disk ProbeCounts, heapMB float64) (map[string]float64, error) {
	v := map[string]float64{
		"setup_s":           QuietMedian(setupS, setupSteal),
		"ops_per_s":         OpsPerSecond(ph, steal),
		"disk_bytes_per_op": ratio(float64(disk.Bytes()), float64(ph.Acked)),
		"heap_mb":           heapMB,
	}
	var medians, pooled []float64
	for _, seg := range quietSegments(ph, steal) {
		ms := make([]float64, len(seg.samples))
		for i, s := range seg.samples {
			ms[i] = s.MS
		}
		medians = append(medians, Median(ms))
		pooled = append(pooled, ms...)
	}
	if len(medians) == 0 {
		return nil, fmt.Errorf("update_p50_ms: no samples")
	}
	v["update_p50_ms"] = Median(medians)
	var err error
	if v["update_p99_ms"], err = TailPercentile(pooled, 0.99); err != nil {
		return nil, fmt.Errorf("update_p99_ms: %w", err)
	}
	return v, nil
}

// Proc is a process resource reading.
type Proc struct {
	CPUNS   int64
	Alloc   uint64
	Mallocs uint64
	NumGC   uint32
}

// ReadProc reads CPU time (getrusage) and allocation counters.
func ReadProc() Proc {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Proc{
		CPUNS:   ru.Utime.Nano() + ru.Stime.Nano(),
		Alloc:   ms.TotalAlloc,
		Mallocs: ms.Mallocs,
		NumGC:   ms.NumGC,
	}
}

// Traced is everything a traced run measured.
type Traced struct {
	Phase       *Phase
	Reg         *obs.Registry
	Spans       []Span
	Disk        ProbeCounts
	Before      Proc
	After       Proc
	Reads       *Phase // the idle-read phase
	Recs        []Recovery
	ReplayUS    []float64
	Steal       StealLog // host steal while Phase ran
	UntracedOPS float64  // ops_per_s of the untraced phase of the same run
}

// tail is a per-layer tail percentile: 0 when the sample cannot support
// it (fewer than MinBeyond samples beyond, e.g. a layer not reached).
func tail(xs []float64, q float64) float64 {
	v, beyond := Percentile(xs, q)
	if beyond < MinBeyond {
		return 0
	}
	return v
}

// PerLayerValues derives the per-layer metrics of a traced run.
func PerLayerValues(t *Traced) map[string]float64 {
	ph, reg, spans := t.Phase, t.Reg, t.Spans
	ops := float64(ph.Acked)
	perOp := func(x float64) float64 { return ratio(x, ops) }
	perKop := func(x float64) float64 { return ratio(1000*x, ops) }
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	histP50 := func(name string, scale float64) float64 { return reg.Histogram(name).Quantile(0.5) / scale }

	v := map[string]float64{}

	submitH := Durations(spans, SpanNetHandler, SpanClientSubmit)
	v["netserve.submit_handler_p50_us"] = Median(submitH)
	v["netserve.submit_handler_p99_us"] = tail(submitH, 0.99)
	v["netserve.read_handler_p50_us"] = Median(Durations(spans, SpanNetHandler, SpanClientRead))
	v["netserve.client_rtt_minus_handler_p50_us"] = Median(SelfTimes(spans, SpanClientSubmit, SpanNetHandler))
	v["netserve.wfq_wait_p50_us"] = histP50("netsrv_wfq_wait_ns", 1e3)

	v["serve.enqueue_p50_us"] = Median(ph.EnqueueUS)
	v["serve.enqueue_p99_us"] = tail(ph.EnqueueUS, 0.99)
	committed := count("serve_ops_committed_total")
	v["serve.ops_per_batch"] = ratio(committed, count("serve_batches_total"))
	v["serve.queue_depth_p50"] = histP50("serve_queue_depth", 1)
	v["serve.seeds_per_op"] = ratio(count("serve_seeds_total"), committed)
	v["serve.divergences"] = count("serve_divergence_total")
	v["serve.retries"] = count("serve_retries_total")
	v["serve.shed"] = count("serve_shed_total")
	// Per-layer metrics have no bound, so a tail the sample cannot
	// support reads 0 rather than failing the run.
	v["serve.view_read_p50_ms"], _ = SegmentLatency(t.Reads.Reads, medianSegments, 0.5)
	v["serve.view_read_p90_ms"], _ = SegmentLatency(t.Reads.Reads, tailSegments, 0.90)

	v["core.decides_per_op"] = perOp(count("core_decide_total"))
	v["core.chase_calls_per_op"] = ratio(float64(ph.ChaseCalls), float64(ph.Decisions))
	fallback := count("core_inc_fallback_total")
	v["core.inc_fallback_ratio"] = ratio(fallback, fallback+count("core_inc_decide_total")+count("core_inc_apply_total"))
	v["core.inc_rebuilds_per_kop"] = perKop(count("core_inc_rebuild_total"))
	hits := count("core_decision_cache_hits_total")
	v["core.decision_cache_hit_ratio"] = ratio(hits, hits+count("core_decision_cache_misses_total"))
	for _, k := range []string{"insert", "delete", "replace"} {
		v["core.decide_"+k+"_p50_us"] = histP50("core_decide_"+k+"_ns", 1e3)
		v["core.apply_"+k+"_p50_us"] = histP50("core_apply_"+k+"_ns", 1e3)
	}
	v["core.replay_apply_p50_us"] = Median(t.ReplayUS)
	v["core.replay_apply_p99_us"] = tail(t.ReplayUS, 0.99)

	v["chase.instance_runs_per_kop"] = perKop(count("chase_instance_runs_total"))
	v["chase.instance_row_visits_per_op"] = perOp(count("chase_instance_row_visits_total"))

	v["relation.project_in_tuples_per_op"] = perOp(count("relation_project_in_tuples_total"))
	v["relation.fdscan_tuples_per_op"] = perOp(count("relation_fdscan_tuples_total"))
	v["relation.selecteq_scanned_per_op"] = perOp(count("relation_selecteq_scanned_tuples_total"))

	syncs := Durations(spans, SpanFSSync, 0)
	v["store.write_p50_us"] = Median(Durations(spans, SpanFSWrite, 0))
	v["store.fsync_p50_us"] = Median(syncs)
	v["store.fsync_p99_us"] = tail(syncs, 0.99)
	d := t.Disk
	v["store.fsyncs_per_kop"] = perKop(float64(d.Syncs))
	v["store.syncdirs_per_kop"] = perKop(float64(d.SyncDirs))
	v["store.journal_bytes_per_op"] = perOp(float64(d.Journal))
	v["store.snapshot_bytes_per_op"] = perOp(float64(d.Snapshot))
	v["store.snapshots_per_kop"] = perKop(float64(d.Snap))
	v["store.snapshot_write_p50_ms"] = histP50("store_snapshot_write_ns", 1e6)
	v["store.journal_append_p50_us"] = histP50("store_journal_append_ns", 1e3)
	v["store.recover_ms"] = RecoverMS(t.Recs)
	v["store.recover_replayed_records"] = float64(t.Recs[0].Replayed)

	v["proc.cpu_us_per_op"] = perOp(float64(t.After.CPUNS-t.Before.CPUNS) / 1e3)
	v["proc.alloc_bytes_per_op"] = perOp(float64(t.After.Alloc - t.Before.Alloc))
	v["proc.allocs_per_op"] = perOp(float64(t.After.Mallocs - t.Before.Mallocs))
	v["proc.gc_cycles_per_kop"] = perKop(float64(t.After.NumGC - t.Before.NumGC))

	v["obs.trace_overhead_pct"] = 100 * (ratio(t.UntracedOPS, OpsPerSecond(ph, t.Steal)) - 1)
	return v
}

// Instrument installs reg as the metrics sink of every instrumented
// layer the workloads reach, or with nil removes them all.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		relation.SetMetrics(nil)
		chase.SetMetrics(nil)
		core.SetMetrics(nil)
		store.SetMetrics(nil)
		serve.SetMetrics(nil)
		netserve.SetMetrics(nil)
		return
	}
	relation.SetMetrics(reg)
	chase.SetMetrics(reg)
	core.SetMetrics(reg)
	store.SetMetrics(reg)
	serve.SetMetrics(reg)
	netserve.SetMetrics(reg)
}

// WriteResult prints r as one JSON line.
func WriteResult(w io.Writer, r Result) error {
	return json.NewEncoder(w).Encode(r)
}

// AppendRecord appends rec to the JSON-lines result set at path.
func AppendRecord(path string, rec Record) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Bound is an end-to-end metric with its regression bound: the share of
// the baseline median by which it may get worse.
type Bound struct {
	Def
	Bound float64
}

// Config is BENCHMARK.json.
type Config struct {
	Workloads []struct{ Name string }
	EndToEnd  []Bound `json:"end_to_end"`
	PerLayer  []Def   `json:"per_layer"`
}

// LoadConfig reads BENCHMARK.json.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// LoadRecords reads a JSON-lines result set, keeping correct untraced
// runs.
func LoadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []Record
	for {
		var r Record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Correct && !r.Trace {
			out = append(out, r)
		}
	}
}

// Delta is one (workload, metric) comparison.
type Delta struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share by which B is worse than A (negative: better)
	Bound            float64
	NA, NB           int // runs behind each median
}

// Exceeds reports whether the change is a regression beyond the bound,
// or could not be measured on one side.
func (d Delta) Exceeds() bool { return d.NA == 0 || d.NB == 0 || d.Worse > d.Bound }

// Compare computes, for every workload in cfg and every end-to-end
// metric, the median of set b against the median of set a.
func Compare(cfg *Config, a, b []Record) []Delta {
	collect := func(rs []Record, wl, m string) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[m]; ok && r.Workload == wl {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var out []Delta
	for _, wl := range cfg.Workloads {
		for _, m := range cfg.EndToEnd {
			xa, xb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			d := Delta{Workload: wl.Name, Metric: m.Name, A: Median(xa), B: Median(xb),
				Bound: m.Bound, NA: len(xa), NB: len(xb)}
			if m.Better == "higher" {
				d.Worse = ratio(d.A-d.B, d.A)
			} else {
				d.Worse = ratio(d.B-d.A, d.A)
			}
			out = append(out, d)
		}
	}
	return out
}
