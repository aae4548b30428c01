package relation

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/obs"
)

// Parallel kernels.
//
// The engine is serial by default — the paper's complexity measurements
// (cmd/experiments) are meaningful only on the serial kernels — and can
// be switched to n-way parallelism with Parallelism(n). Inputs below
// parallelThreshold tuples always take the serial path: goroutine
// fan-out costs more than it saves on small relations.
//
// Every parallel kernel is deterministic and produces tuples in exactly
// the serial kernel's insertion order: work is split into contiguous
// chunks, each worker emits into a private buffer (pre-deduplicated
// where the kernel dedups), and the buffers are merged in chunk order.
// A tuple's first occurrence therefore appears at the same position as
// in the serial scan, for any worker count.

// maxParallelism is the configured worker count; values < 1 mean serial.
var maxParallelism atomic.Int32

// Parallelism sets the number of worker goroutines the kernels may use
// (the joins, Project, SelectEq and the FD-satisfaction scan). n == 1
// restores the default serial behaviour; n <= 0 selects GOMAXPROCS.
func Parallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	maxParallelism.Store(int32(n))
}

// workers returns the effective worker count (≥ 1).
func workers() int {
	if n := int(maxParallelism.Load()); n > 1 {
		return n
	}
	return 1
}

// parallelThreshold is the input size (in tuples) below which kernels
// stay serial regardless of the Parallelism knob.
const parallelThreshold = 4096

// forChunks splits n items into one contiguous chunk per worker and runs
// fn(w, lo, hi) concurrently, waiting for all chunks.
//
// With metrics enabled, each chunk runs under pprof labels
// (kernel_worker=<w>) so CPU profiles attribute samples to workers, its
// busy time feeds the chunk-duration histogram, and the whole fan-out
// reports worker utilization (total busy time over wall time × workers).
func forChunks(n, nw int, fn func(w, lo, hi int)) {
	var busy atomic.Int64
	var start int64
	m := kmetrics.Load()
	if m != nil {
		start = obs.NowNS()
		inner := fn
		fn = func(w, lo, hi int) {
			labels := pprof.Labels("subsystem", "relation", "kernel_worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				t0 := obs.NowNS()
				inner(w, lo, hi)
				d := obs.SinceNS(t0)
				busy.Add(d)
				m.parallelChunks.Inc()
				m.parallelChunkNs.ObserveDuration(d)
			})
		}
	}
	chunk := (n + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	if m != nil {
		if wall := obs.SinceNS(start); wall > 0 {
			m.parallelUtilPct.Observe(100 * float64(busy.Load()) / (float64(wall) * float64(nw)))
		}
	}
}

// projectParallel is Project over chunked workers: each chunk projects
// and dedups locally, then the chunks merge in order (global dedup by
// Insert), reproducing the serial first-occurrence order.
func projectParallel(r *Relation, attrs attr.Set, m []int) *Relation {
	nw := workers()
	parts := make([]*Relation, nw)
	forChunks(r.Len(), nw, func(w, lo, hi int) {
		loc := New(attrs)
		var sl slab
		for i := lo; i < hi; i++ {
			loc.insertProjection(r.tuples.at(i), m, &sl)
		}
		parts[w] = loc
	})
	out := parts[0]
	for _, p := range parts[1:] {
		if p == nil {
			continue
		}
		p.Each(func(_ int, t Tuple) bool {
			out.Insert(t)
			return true
		})
	}
	return out
}

// selectEqParallel is the chunked SelectEq scan; matches are distinct by
// construction, so the in-order merge needs no dedup work.
func selectEqParallel(r *Relation, m []int, key Tuple) *Relation {
	nw := workers()
	parts := make([][]Tuple, nw)
	forChunks(r.Len(), nw, func(w, lo, hi int) {
		var loc []Tuple
		for i := lo; i < hi; i++ {
			if t := r.tuples.at(i); equalKey(t, m, key) {
				loc = append(loc, t)
			}
		}
		parts[w] = loc
	})
	out := New(r.attrs)
	for _, p := range parts {
		for _, t := range p {
			out.Insert(t)
		}
	}
	return out
}

// joinHashParallel is the partitioned parallel hash join. The build side
// is split by the top hash bits into one independent chained index per
// partition, built concurrently (each worker writes only its partition's
// chains, so the shared next array is race-free). Probe chunks then run
// concurrently, each emitting into a private pre-deduplicated relation;
// the chunk-ordered merge reproduces the serial output order.
func joinHashParallel(r, s, build, probe *Relation, shared attr.Set) *Relation {
	nw := workers()
	bm := build.projector(shared)
	pm := probe.projector(shared)

	// Partition count: power of two ≥ nw, selected by the hash top bits.
	parts := 1
	shift := uint(64)
	for parts < nw {
		parts *= 2
		shift--
	}
	indexes := make([]*joinIndex, parts)
	next := make([]int, build.Len())
	hashes := make([]uint64, build.Len())
	forChunks(build.Len(), nw, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			hashes[i] = hashCols(build.tuples.at(i), bm)
		}
	})
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ji := &joinIndex{heads: NewHeadTable(build.Len()/parts + 1), next: next}
			for i, h := range hashes {
				if int(h>>shift) == p {
					next[i] = ji.heads.Put(h, i)
				}
			}
			indexes[p] = ji
		}(p)
	}
	wg.Wait()

	planRel, fromR, fromS := joinPlan(r, s)
	union := planRel.attrs
	buildIsR := build == r
	outs := make([]*Relation, nw)
	visits := make([]int64, nw)
	forChunks(probe.Len(), nw, func(wk, lo, hi int) {
		loc := New(union)
		var sl slab
		visits[wk] = probeJoin(loc, indexes, shift, build, probe, bm, pm, fromR, fromS, buildIsR, lo, hi, &sl)
		outs[wk] = loc
	})
	out := outs[0]
	if out == nil {
		out = New(union)
	}
	for _, p := range outs[1:] {
		if p == nil {
			continue
		}
		p.Each(func(_ int, t Tuple) bool {
			out.Insert(t)
			return true
		})
	}
	if m := kmetrics.Load(); m != nil {
		var total int64
		for _, v := range visits {
			total += v
		}
		recordJoin(m, build, probe, out, total)
	}
	return out
}

// satisfiesFDParallel checks an FD with chunked workers: each chunk
// verifies itself and collects one witness tuple per distinct From key;
// a final serial scan over all witnesses decides cross-chunk agreement.
func satisfiesFDParallel(tuples *chunks[Tuple], fm, tm []int) bool {
	nw := workers()
	var bad atomic.Bool
	wits := make([][]Tuple, nw)
	forChunks(tuples.len(), nw, func(w, lo, hi int) {
		heads := NewHeadTable(hi - lo)
		next := make([]int, hi-lo)
		wit := make([]Tuple, 0, 64)
		for i := lo; i < hi; i++ {
			t := tuples.at(i)
			h := hashCols(t, fm)
			matched := false
			for j := heads.Get(h); j >= 0; j = next[j] {
				if equalOn(wit[j], fm, t, fm) {
					if !equalOn(wit[j], tm, t, tm) {
						bad.Store(true)
						return
					}
					matched = true
					break
				}
			}
			if !matched {
				next[len(wit)] = heads.Put(h, len(wit))
				wit = append(wit, t)
			}
		}
		wits[w] = wit
	})
	if bad.Load() {
		return false
	}
	var all chunks[Tuple]
	for _, w := range wits {
		for _, t := range w {
			all.push(t)
		}
	}
	return satisfiesFDScan(&all, fm, tm)
}
