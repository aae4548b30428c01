package bad

// A stale allow: nothing on its line or the next is a finding, so the
// marker excuses nothing today and would excuse a real loop tomorrow.
/* want `stale //constvet:allow budgetloop: it suppresses no finding` */ //constvet:allow budgetloop -- once excused a loop that is gone
func straightLine(x int) int {
	return x + 1
}

// An allow naming another analyzer is judged only when that analyzer
// runs, so budgetloop leaves this one alone.
//
//constvet:allow mapiter -- judged by mapiter, not budgetloop
func alsoStraight(x int) int {
	return x * 2
}
