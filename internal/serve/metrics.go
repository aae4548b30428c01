package serve

import (
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/obs"
)

// serveMetrics holds the resolved metric handles for the pipeline.
// Fsyncs-per-op is serve_batches_total / serve_ops_committed_total:
// each batch costs exactly one journal fsync (store.ApplyOpsCtx), so
// the ratio falls toward 1/MaxBatch as the queue fills.
type serveMetrics struct {
	submitted *obs.Counter
	committed *obs.Counter
	batches   *obs.Counter

	// Self-healing instrumentation: retries counts the ops of failed
	// batches re-journaled on a resurrected session; shed counts ops rejected by bounded admission
	// (a full submit queue); resurrections counts
	// successful session replacements; degradedReads counts Published calls
	// served while the store was healing or latched broken.
	retries       *obs.Counter
	shed          *obs.Counter
	resurrections *obs.Counter
	degradedReads *obs.Counter

	// batchRecords is the ops-per-fsync distribution; queueDepth samples
	// the submit queue length at each batch formation.
	batchRecords *obs.Histogram
	queueDepth   *obs.Histogram
}

var svmetrics atomic.Pointer[serveMetrics]

// SetMetrics installs (or, with nil, removes) the metrics sink for the
// serving pipeline.
func SetMetrics(s obs.Sink) {
	if s == nil {
		svmetrics.Store(nil)
		return
	}
	svmetrics.Store(&serveMetrics{
		submitted:     s.Counter("serve_ops_submitted_total"),
		committed:     s.Counter("serve_ops_committed_total"),
		batches:       s.Counter("serve_batches_total"),
		retries:       s.Counter("serve_retries_total"),
		shed:          s.Counter("serve_shed_total"),
		resurrections: s.Counter("serve_resurrections_total"),
		degradedReads: s.Counter("serve_degraded_reads_total"),
		batchRecords:  s.Histogram("serve_batch_records"),
		queueDepth:    s.Histogram("serve_queue_depth"),
	})
}
