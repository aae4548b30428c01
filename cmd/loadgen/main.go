// Command loadgen replays a skewed mixed-op stream against a viewsrv
// instance from N simulated clients and gates the run on serving
// invariants: no acknowledged op may be lost (the final view must equal
// the view implied by the acks, for the keys loadgen owns) and the
// submit path must never see a 5xx. It reports client-observed
// p50/p95/p99 request latencies per tenant and can write a
// benchjson-compatible report for the CI artifact.
//
// Usage:
//
//	loadgen -addr host:port [-view ed] [-clients 8] [-ops 2000] [-batch 8]
//	        [-tenants good,hog] [-zipf 1.2] [-keys 256] [-depts 8]
//	        [-seed 1] [-report out.json] [-expect-resurrection]
//	        [-verify=true]
//
// Each client owns a private keyspace (employee names embed the tenant
// and client index), so the expected final presence of every key is
// exactly determined by that client's acknowledged ops — concurrent
// clients cannot perturb each other's verification. Keys are drawn from
// a zipfian distribution, so hot keys see long insert/delete/replace
// chains; the keys of one submit are distinct (so -keys must be at
// least -batch), which makes every op meet the state it was built
// from. Each submit is one request of op frames, answered in result
// frames (internal/netserve's wire.go). Throttled requests (429) honor
// Retry-After and retry; shed ops are definite non-applications and
// simply leave state unchanged.
//
// With -expect-resurrection, the run additionally requires the server's
// serve_resurrections_total counter to be at least 1 — the smoke test
// injects a storage fault and demands the pipeline healed through it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
)

// benchRecord mirrors cmd/benchjson's Record so the -report file can be
// fed straight into `benchjson -compare`.
type benchRecord struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// client is one simulated network peer.
type client struct {
	idx    int
	tenant string
	ops    int
	rng    *rand.Rand
	zipf   *rand.Zipf

	// present tracks the dept each owned key's tuple currently has in
	// the view according to the acks this client received; -1 = absent.
	present []int

	// Gates and accounting, written by the client goroutine and read
	// after the WaitGroup join.
	acked     int64
	identity  int64
	rejected  int64
	shed      int64
	throttled int64
	opErrs    int64
	failures  []string
	reasons   map[string]int64
	latency   *obs.Histogram
}

type config struct {
	addr, view   string
	clients, ops int
	batch        int
	tenants      []string
	zipfS        float64
	keys, depts  int
	seed         int64

	// attrs is the view's column order as reported by the server; eCol
	// and dCol locate E and D within it.
	attrs      []string
	eCol, dCol int
}

// tuple renders (emp, dept) in the view's column order.
func (cfg *config) tuple(emp, dept string) []string {
	t := make([]string, len(cfg.attrs))
	t[cfg.eCol] = emp
	t[cfg.dCol] = dept
	return t
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	cfg := &config{}
	flag.StringVar(&cfg.addr, "addr", "", "server host:port (required)")
	flag.StringVar(&cfg.view, "view", "ed", "view to load")
	flag.IntVar(&cfg.clients, "clients", 8, "simulated clients")
	flag.IntVar(&cfg.ops, "ops", 2000, "total ops across all clients")
	flag.IntVar(&cfg.batch, "batch", 8, "ops per submit request")
	tenantsFlag := flag.String("tenants", "good", "comma-separated tenants, assigned to clients round-robin")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.2, "zipf skew s (>1) for key selection")
	flag.IntVar(&cfg.keys, "keys", 256, "keys per client")
	flag.IntVar(&cfg.depts, "depts", 8, "department domain size")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	report := flag.String("report", "", "write a benchjson-compatible latency report here")
	expectRes := flag.Bool("expect-resurrection", false, "require serve_resurrections_total >= 1 on the server")
	verify := flag.Bool("verify", true, "verify the final view against the acks")
	flag.Parse()
	if cfg.addr == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg.tenants = strings.Split(*tenantsFlag, ",")

	if err := run(cfg, *report, *expectRes, *verify); err != nil {
		log.Fatal(err)
	}
}

func run(cfg *config, reportPath string, expectRes, verify bool) error {
	if cfg.keys < cfg.batch {
		return fmt.Errorf("-keys %d is below -batch %d: the ops of one submit need distinct keys", cfg.keys, cfg.batch)
	}
	base := "http://" + cfg.addr
	httpc := &http.Client{Timeout: 60 * time.Second}

	if err := discoverLayout(httpc, base, cfg); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	clients := newClients(cfg, reg)
	perClient := clients[0].ops

	t0 := obs.NowNS()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		//constvet:allow rawgo -- each client goroutine models one independent network peer; the simulated fleet IS the workload, which no scheduler abstraction expresses
		go func() {
			defer wg.Done()
			c.drive(cfg, httpc, base)
		}()
	}
	wg.Wait()
	wallNS := obs.NowNS() - t0

	// Aggregate and report.
	var acked, identity, rejected, shed, throttled, opErrs int64
	var failures []string
	for _, c := range clients {
		acked += c.acked
		identity += c.identity
		rejected += c.rejected
		shed += c.shed
		throttled += c.throttled
		opErrs += c.opErrs
		failures = append(failures, c.failures...)
	}
	fmt.Printf("loadgen: %d clients x %d ops: %d acked (%d identity), %d rejected, %d shed, %d throttled, %d op-errors in %.2fs\n",
		cfg.clients, perClient, acked, identity, rejected, shed, throttled, opErrs, float64(wallNS)/1e9)
	reasons := map[string]int64{}
	for _, c := range clients {
		for msg, n := range c.reasons {
			reasons[msg] += n
		}
	}
	msgs := make([]string, 0, len(reasons))
	for msg := range reasons {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		fmt.Printf("  %6d x %s\n", reasons[msg], msg)
	}
	tenantSet := map[string]bool{}
	for _, t := range cfg.tenants {
		if tenantSet[t] {
			continue
		}
		tenantSet[t] = true
		h := reg.Histogram("loadgen_" + t + "_request_ns")
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  tenant %-10s %6d requests  p50 %8.0fns  p95 %8.0fns  p99 %8.0fns\n",
			t, h.Count(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
	}

	if reportPath != "" {
		if err := writeReport(reportPath, cfg, reg, acked, wallNS); err != nil {
			return err
		}
	}

	// Gates, all evaluated so a run reports every violation at once.
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL:", f)
	}
	if verify {
		if errs := verifyFinalView(httpc, base, cfg, clients); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "loadgen: FAIL: lost ack:", e)
			}
			failures = append(failures, errs...)
		}
	}
	if expectRes {
		if err := checkResurrection(httpc, base); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: FAIL:", err)
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d invariant violation(s)", len(failures))
	}
	fmt.Println("loadgen: all invariants held")
	return nil
}

// newClients builds cfg.clients clients, each with its seeded op
// stream, its share of cfg.ops, every owned key absent, and its
// tenant's latency histogram in reg.
func newClients(cfg *config, reg *obs.Registry) []*client {
	clients := make([]*client, cfg.clients)
	perClient := (cfg.ops + cfg.clients - 1) / cfg.clients
	for i := range clients {
		tenant := cfg.tenants[i%len(cfg.tenants)]
		rng := rand.New(rand.NewSource(cfg.seed + int64(i)*7919))
		c := &client{
			idx:     i,
			tenant:  tenant,
			ops:     perClient,
			rng:     rng,
			zipf:    rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1)),
			present: make([]int, cfg.keys),
			latency: reg.Histogram("loadgen_" + tenant + "_request_ns"),
		}
		for k := range c.present {
			c.present[k] = -1
		}
		clients[i] = c
	}
	return clients
}

// discoverLayout reads the view's column order from the server so
// tuples are built in the order the server expects.
func discoverLayout(httpc *http.Client, base string, cfg *config) error {
	resp, err := httpc.Get(base + "/v1/views/" + cfg.view)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET view %s: %s: %s", cfg.view, resp.Status, body)
	}
	var vr netserve.ViewResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		return err
	}
	cfg.attrs = vr.Attrs
	cfg.eCol, cfg.dCol = -1, -1
	for i, a := range vr.Attrs {
		switch a {
		case "E":
			cfg.eCol = i
		case "D":
			cfg.dCol = i
		}
	}
	if cfg.eCol < 0 || cfg.dCol < 0 {
		return fmt.Errorf("view %s lacks E/D columns (attrs %v); loadgen drives the ed view", cfg.view, vr.Attrs)
	}
	return nil
}

// drive runs one client's op stream: batches of -batch ops, each batch
// one submit request, state advanced only by acked results.
func (c *client) drive(cfg *config, httpc *http.Client, base string) {
	url := base + "/v1/views/" + cfg.view + "/submit"
	sent := 0
	for sent < c.ops {
		n := cfg.batch
		if rem := c.ops - sent; rem < n {
			n = rem
		}
		ops := make([]netserve.WireOp, n)
		keys := make([]int, n)
		for i := range ops {
			k := c.drawKey(cfg, keys[:i])
			keys[i] = k
			ops[i] = c.genFor(cfg, k)
		}
		results, status, retryAfter, err := c.submit(httpc, url, ops)
		if err != nil {
			c.failures = append(c.failures, fmt.Sprintf("client %d: %v", c.idx, err))
			return
		}
		if status == http.StatusTooManyRequests {
			// Throttled or budget-limited: honor Retry-After and replay
			// the same batch. Not a failure — admission doing its job.
			c.throttled++
			obs.SystemClock().Sleep(int64(retryAfter) * int64(time.Second))
			continue
		}
		if status >= 500 {
			c.failures = append(c.failures, fmt.Sprintf("client %d: submit returned %d", c.idx, status))
			return
		}
		if status != http.StatusOK {
			c.failures = append(c.failures, fmt.Sprintf("client %d: submit returned %d", c.idx, status))
			return
		}
		if len(results) != n {
			c.failures = append(c.failures, fmt.Sprintf("client %d: %d results for %d ops", c.idx, len(results), n))
			return
		}
		for i, res := range results {
			c.apply(cfg, keys[i], ops[i], res)
		}
		sent += n
	}
}

// drawKey draws a zipfian key not in taken, the keys of the batch so
// far: on a repeat it takes the next unused key (k+1 mod -keys), at
// most len(taken) steps away. Every op of a batch is built from the
// presence tracked before the batch, so distinct keys are what make
// each op meet exactly the state it was built against.
func (c *client) drawKey(cfg *config, taken []int) int {
	k := int(c.zipf.Uint64())
	for slices.Contains(taken, k) {
		k = (k + 1) % cfg.keys
	}
	return k
}

// genFor builds the op for key k from current tracked presence.
func (c *client) genFor(cfg *config, k int) netserve.WireOp {
	name := fmt.Sprintf("lg_%s_c%d_k%d", c.tenant, c.idx, k)
	if c.present[k] < 0 {
		dept := c.rng.Intn(cfg.depts)
		return netserve.WireOp{Kind: netserve.KindInsert, Tuple: cfg.tuple(name, fmt.Sprintf("dept%d", dept))}
	}
	cur := fmt.Sprintf("dept%d", c.present[k])
	if c.rng.Intn(10) < 3 || cfg.depts < 2 {
		return netserve.WireOp{Kind: netserve.KindDelete, Tuple: cfg.tuple(name, cur)}
	}
	// A replace moves the key to another department: a tuple replaced
	// by itself is refused, since the replacement is already in the view.
	dept := (c.present[k] + 1 + c.rng.Intn(cfg.depts-1)) % cfg.depts
	return netserve.WireOp{Kind: netserve.KindReplace,
		Tuple: cfg.tuple(name, cur), With: cfg.tuple(name, fmt.Sprintf("dept%d", dept))}
}

// apply advances tracked state by one result: only acked (applied) ops
// change expectations; rejections and sheds are definite
// non-applications.
func (c *client) apply(cfg *config, k int, op netserve.WireOp, res netserve.OpResult) {
	switch {
	case res.Applied:
		c.acked++
		if res.Identity {
			// An identity translation is acknowledged but changed
			// nothing: the view already reflected the op.
			c.identity++
			return
		}
		switch op.Kind {
		case netserve.KindInsert:
			c.present[k] = deptOf(cfg, op.Tuple)
		case netserve.KindDelete:
			c.present[k] = -1
		case netserve.KindReplace:
			c.present[k] = deptOf(cfg, op.With)
		}
	case res.Rejected:
		c.rejected++
		c.reason("rejected: " + res.Reason)
	case res.Shed:
		c.shed++
	default:
		c.opErrs++
		c.reason("error: " + res.Error)
	}
}

// reason tallies a non-applied outcome's message for the summary.
func (c *client) reason(msg string) {
	if c.reasons == nil {
		c.reasons = make(map[string]int64)
	}
	c.reasons[msg]++
}

func deptOf(cfg *config, tuple []string) int {
	d, err := strconv.Atoi(strings.TrimPrefix(tuple[cfg.dCol], "dept"))
	if err != nil {
		return -1
	}
	return d
}

// submit sends one batch as op frames and decodes the per-op result
// frames. retryAfter is the parsed Retry-After on 429.
func (c *client) submit(httpc *http.Client, url string, ops []netserve.WireOp) ([]netserve.OpResult, int, int, error) {
	var body []byte
	for _, op := range ops {
		var err error
		if body, err = netserve.AppendOpFrame(body, op); err != nil {
			return nil, 0, 0, err
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", netserve.ContentTypeFrame)
	req.Header.Set(netserve.HeaderTenant, c.tenant)
	t0 := obs.NowNS()
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	c.latency.ObserveDuration(obs.NowNS() - t0)
	if resp.StatusCode == http.StatusTooManyRequests {
		_, _ = io.Copy(io.Discard, resp.Body)
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if retry < 1 {
			retry = 1
		}
		return nil, resp.StatusCode, retry, nil
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, 0, nil
	}
	br := bufio.NewReader(resp.Body)
	var results []netserve.OpResult
	for {
		res, err := netserve.ReadResultFrame(br)
		if err == io.EOF {
			return results, resp.StatusCode, 0, nil
		}
		if err != nil {
			return nil, 0, 0, err
		}
		results = append(results, res)
	}
}

// verifyFinalView checks the lost-ack gate: for every key loadgen owns,
// the final view holds exactly the tuple implied by that client's acks.
func verifyFinalView(httpc *http.Client, base string, cfg *config, clients []*client) []string {
	resp, err := httpc.Get(base + "/v1/views/" + cfg.view)
	if err != nil {
		return []string{err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return []string{fmt.Sprintf("final read: %s", resp.Status)}
	}
	var vr netserve.ViewResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		return []string{err.Error()}
	}
	got := map[string]string{} // emp -> dept, loadgen-owned rows only
	for _, row := range vr.Rows {
		if len(row) != len(cfg.attrs) {
			return []string{fmt.Sprintf("row width %d != %d", len(row), len(cfg.attrs))}
		}
		if emp := row[cfg.eCol]; strings.HasPrefix(emp, "lg_") {
			got[emp] = row[cfg.dCol]
		}
	}
	var errs []string
	expected := 0
	for _, c := range clients {
		for k, dept := range c.present {
			emp := fmt.Sprintf("lg_%s_c%d_k%d", c.tenant, c.idx, k)
			switch {
			case dept < 0:
				if d, ok := got[emp]; ok {
					errs = append(errs, fmt.Sprintf("%s should be absent, view has dept %s", emp, d))
				}
			default:
				expected++
				want := fmt.Sprintf("dept%d", dept)
				if d, ok := got[emp]; !ok {
					errs = append(errs, fmt.Sprintf("%s acked into %s but missing from the view", emp, want))
				} else if d != want {
					errs = append(errs, fmt.Sprintf("%s acked into %s but view has %s", emp, want, d))
				}
			}
		}
	}
	if len(errs) > 8 {
		errs = append(errs[:8], fmt.Sprintf("... and %d more", len(errs)-8))
	}
	fmt.Printf("loadgen: final view verified: %d owned tuples expected, %d found, seq %d\n",
		expected, len(got), vr.Seq)
	return errs
}

// checkResurrection requires the server to have healed at least once.
func checkResurrection(httpc *http.Client, base string) error {
	resp, err := httpc.Get(base + "/metricz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	if n := snap.Counters["serve_resurrections_total"]; n < 1 {
		return fmt.Errorf("expected a resurrection, serve_resurrections_total = %d", n)
	}
	fmt.Printf("loadgen: resurrection observed (serve_resurrections_total = %d)\n",
		snap.Counters["serve_resurrections_total"])
	return nil
}

// writeReport emits a benchjson-compatible record array: whole-run
// throughput plus per-tenant latency quantiles (as ns/op records, so
// the bench gate can track them).
func writeReport(path string, cfg *config, reg *obs.Registry, acked int64, wallNS int64) error {
	recs := []benchRecord{}
	if acked > 0 {
		recs = append(recs, benchRecord{
			Name:       "BenchmarkLoadgen/acked_ops",
			Procs:      cfg.clients,
			Iterations: acked,
			NsPerOp:    float64(wallNS) / float64(acked),
		})
	}
	seen := map[string]bool{}
	tenants := []string{}
	for _, t := range cfg.tenants {
		if !seen[t] {
			seen[t] = true
			tenants = append(tenants, t)
		}
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		h := reg.Histogram("loadgen_" + t + "_request_ns")
		if h.Count() == 0 {
			continue
		}
		for _, qv := range []struct {
			q string
			v float64
		}{{"p50", h.Quantile(0.5)}, {"p95", h.Quantile(0.95)}, {"p99", h.Quantile(0.99)}} {
			recs = append(recs, benchRecord{
				Name:       "BenchmarkLoadgen/" + t + "_" + qv.q,
				Procs:      cfg.clients,
				Iterations: h.Count(),
				NsPerOp:    qv.v,
			})
		}
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
