package core

import (
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/obs"
)

// coreMetrics holds the resolved metric handles for session decisions.
type coreMetrics struct {
	decideTotal  *obs.Counter
	translatable *obs.Counter
	rejected     *obs.Counter
	applied      *obs.Counter
	// Incremental-path accounting (incremental.go): decides/applies
	// satisfied per-delta, fallbacks to the full path, invalidations
	// and rebuilds of the maintained state, and the sizes of the base
	// deltas actually applied.
	incDecide     *obs.Counter
	incApply      *obs.Counter
	incFallback   *obs.Counter
	incInvalidate *obs.Counter
	incRebuild    *obs.Counter
	deltaPlus     *obs.Histogram
	deltaMinus    *obs.Histogram
	// decideNs and applyNs are indexed by UpdateKind.
	decideNs [3]*obs.Histogram
	applyNs  [3]*obs.Histogram
}

var coremetrics atomic.Pointer[coreMetrics]

// SetMetrics installs (or, with nil, removes) the metrics sink for
// session decide/apply accounting.
func SetMetrics(s obs.Sink) {
	if s == nil {
		coremetrics.Store(nil)
		return
	}
	m := &coreMetrics{
		decideTotal:   s.Counter("core_decide_total"),
		translatable:  s.Counter("core_decide_translatable_total"),
		rejected:      s.Counter("core_decide_rejected_total"),
		applied:       s.Counter("core_apply_applied_total"),
		incDecide:     s.Counter("core_inc_decide_total"),
		incApply:      s.Counter("core_inc_apply_total"),
		incFallback:   s.Counter("core_inc_fallback_total"),
		incInvalidate: s.Counter("core_inc_invalidate_total"),
		incRebuild:    s.Counter("core_inc_rebuild_total"),
		deltaPlus:     s.Histogram("core_delta_plus_size"),
		deltaMinus:    s.Histogram("core_delta_minus_size"),
	}
	for _, k := range [...]UpdateKind{UpdateInsert, UpdateDelete, UpdateReplace} {
		m.decideNs[k] = s.Histogram("core_decide_" + k.String() + "_ns")
		m.applyNs[k] = s.Histogram("core_apply_" + k.String() + "_ns")
	}
	coremetrics.Store(m)
}

// validKind reports whether k indexes the per-kind histogram arrays.
func validKind(k UpdateKind) bool {
	return k == UpdateInsert || k == UpdateDelete || k == UpdateReplace
}
