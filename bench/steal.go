package bench

import (
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/constcomp/constcomp/internal/obs"
)

// The benchmark runs in a VM on a shared host. For minutes at a time the
// host runs other guests on this VM's CPUs; Linux reports that time as
// steal in /proc/stat. A stretch in which the host takes 10–20% of the
// CPUs' time slows these workloads by 20–35%, more than the time taken,
// because a stolen slice stalls the whole pipeline behind the
// descheduled goroutine. Every wall-clock end-to-end metric is therefore
// taken over the quiet intervals of its run: those in which the host
// took less than quietSteal of the CPUs' time.

// quietSteal is the largest share of the CPUs' time the host may take
// from an interval for it to count as quiet.
const quietSteal = 0.02

// StealSample is one reading of the aggregate cpu line of /proc/stat:
// ticks the host spent running something else while this VM's CPUs had
// work (steal), and ticks of every kind.
type StealSample struct {
	NS           int64 // obs.NowNS when read
	Steal, Total uint64
}

// ReadSteal reads /proc/stat now; ok is false where it cannot be read,
// and the run then treats every interval as quiet.
func ReadSteal() (StealSample, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return StealSample{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	s, ok := parseCPULine(line)
	s.NS = obs.NowNS()
	return s, ok
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq
// steal ...". Guest time is already counted in user, so the total is the
// sum of the first eight fields.
func parseCPULine(line string) (StealSample, bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return StealSample{}, false
	}
	var s StealSample
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return StealSample{}, false
		}
		s.Total += v
		if i == 8 {
			s.Steal = v
		}
	}
	return s, true
}

// StealLog is the readings taken, in time order, while a phase ran.
type StealLog []StealSample

// Share is the share of the CPUs' time stolen over an interval covering
// [t0, t1]: from the last reading at or before t0 to the first at or
// after t1. It is 0 when the log cannot tell.
func (l StealLog) Share(t0, t1 int64) float64 {
	if len(l) < 2 {
		return 0
	}
	i, j := 0, len(l)-1
	for k, s := range l {
		if s.NS <= t0 {
			i = k
		}
		if s.NS >= t1 {
			j = k
			break
		}
	}
	if j <= i {
		return 0
	}
	return ratio(float64(l[j].Steal-l[i].Steal), float64(l[j].Total-l[i].Total))
}

// Quiet returns, in order, the indices of the intervals whose steal share
// is below quietSteal; when fewer than a quarter are, the least-stolen
// quarter instead, so that a run inside a long stolen stretch still
// reports.
func Quiet(shares []float64) []int {
	var out []int
	for i, s := range shares {
		if s < quietSteal {
			out = append(out, i)
		}
	}
	quarter := (len(shares) + 3) / 4
	if len(out) >= quarter {
		return out
	}
	idx := make([]int, len(shares))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
	out = idx[:quarter]
	sort.Ints(out)
	return out
}
