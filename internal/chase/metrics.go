package chase

import (
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/obs"
)

// chaseMetrics holds the resolved metric handles for the chase
// procedures: the instance chase (Theorem 3's engine), the tableau
// chase (Theorem 1's engine) and the removal paths of Maintained.
type chaseMetrics struct {
	instanceRuns      *obs.Counter
	instancePasses    *obs.Counter
	instanceRowVisits *obs.Counter
	instanceEquations *obs.Counter
	instanceClashes   *obs.Counter
	instanceRows      *obs.Histogram

	tableauRuns      *obs.Counter
	tableauFDPasses  *obs.Counter
	tableauJDPasses  *obs.Counter
	tableauRowVisits *obs.Counter
	tableauRows      *obs.Histogram

	maintainedDetach      *obs.Counter
	maintainedRechase     *obs.Counter
	maintainedRechaseRows *obs.Counter
}

var cmetrics atomic.Pointer[chaseMetrics]

// SetMetrics installs (or, with nil, removes) the metrics sink for the
// chase procedures.
func SetMetrics(s obs.Sink) {
	if s == nil {
		cmetrics.Store(nil)
		return
	}
	cmetrics.Store(&chaseMetrics{
		instanceRuns:      s.Counter("chase_instance_runs_total"),
		instancePasses:    s.Counter("chase_instance_passes_total"),
		instanceRowVisits: s.Counter("chase_instance_row_visits_total"),
		instanceEquations: s.Counter("chase_instance_equations_total"),
		instanceClashes:   s.Counter("chase_instance_clashes_total"),
		instanceRows:      s.Histogram("chase_instance_rows"),

		tableauRuns:      s.Counter("chase_tableau_runs_total"),
		tableauFDPasses:  s.Counter("chase_tableau_fd_passes_total"),
		tableauJDPasses:  s.Counter("chase_tableau_jd_passes_total"),
		tableauRowVisits: s.Counter("chase_tableau_row_visits_total"),
		tableauRows:      s.Histogram("chase_tableau_rows"),

		maintainedDetach:      s.Counter("chase_maintained_detach_total"),
		maintainedRechase:     s.Counter("chase_maintained_rechase_total"),
		maintainedRechaseRows: s.Counter("chase_maintained_rechase_rows_total"),
	})
}
