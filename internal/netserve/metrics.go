package netserve

import (
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/obs"
)

// netserveMetrics holds the resolved metric handles for the HTTP
// front-end and its admission gate.
type netserveMetrics struct {
	requests  *obs.Counter
	responses *obs.Counter
	errors5xx *obs.Counter

	// Submit-path accounting: ops received, requests admitted past the
	// gate, ops shed by the pipeline's bounded queue, and requests
	// throttled by a token bucket or refused by the bounded tenant
	// table.
	submitOps  *obs.Counter
	admitted   *obs.Counter
	submitShed *obs.Counter
	throttled  *obs.Counter
	tenantFull *obs.Counter

	// degradedReads counts view reads answered while the backing
	// pipeline was healing or latched broken.
	degradedReads *obs.Counter

	// Latency distributions: whole-request service time per path kind,
	// time a request waited for an admission slot (observed only when
	// it had to wait; the series keeps its historical wfq name), and
	// ops carried per submit request.
	readNs     *obs.Histogram
	submitNs   *obs.Histogram
	slotWaitNs *obs.Histogram
	opsPerReq  *obs.Histogram
}

var nsmetrics atomic.Pointer[netserveMetrics]

// SetMetrics installs (or, with nil, removes) the metrics sink for the
// network front-end.
func SetMetrics(s obs.Sink) {
	if s == nil {
		nsmetrics.Store(nil)
		return
	}
	nsmetrics.Store(&netserveMetrics{
		requests:      s.Counter("netsrv_requests_total"),
		responses:     s.Counter("netsrv_responses_total"),
		errors5xx:     s.Counter("netsrv_5xx_total"),
		submitOps:     s.Counter("netsrv_submit_ops_total"),
		admitted:      s.Counter("netsrv_admitted_total"),
		submitShed:    s.Counter("netsrv_submit_shed_total"),
		throttled:     s.Counter("netsrv_throttled_total"),
		tenantFull:    s.Counter("netsrv_tenant_table_full_total"),
		degradedReads: s.Counter("netsrv_degraded_reads_total"),
		readNs:        s.Histogram("netsrv_read_ns"),
		submitNs:      s.Histogram("netsrv_submit_ns"),
		slotWaitNs:    s.Histogram("netsrv_wfq_wait_ns"),
		opsPerReq:     s.Histogram("netsrv_ops_per_request"),
	})
}
