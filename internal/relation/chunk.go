package relation

import "sync/atomic"

// Copy-on-write chunked storage.
//
// A relation keeps its tuples and its index slots in two chunks arrays.
// An array the relation owns outright is one slab, flat, grown by
// append like any slice. Clone shares it instead of copying, and after
// that neither side owns the slab. The first write then gives the
// writer a directory over the slab, cut into fixed-size chunks of
// chunkLen entries (chunked), and copies only the chunk it writes; chunks
// the writer has not copied stay shared. 32 Tuples fill the 768-byte
// size class and 32 index slots the 512-byte one, with no per-chunk
// header. Each directory entry carries the generation of the array
// that may write the chunk in place, and cloning a chunked array gives
// both sides fresh generations and the clone a copy of the directory.
// Either way a clone costs at most O(entries / chunkLen) and each later
// write O(1) chunks, where a full copy costs O(entries).
//
// Chunk copies are carved from slabs whose size doubles with the number
// of chunks the array has carved, so rewriting a whole clone takes
// O(log n) allocations; no slab outgrows the copies left before the
// next compaction. A chunked array keeps the slab it was cut from alive
// as well as its copies, and every read pays the directory, so once the
// entries written since the array was last one slab reach half its
// capacity, a chunk copy counting chunkLen, the next write compacts it
// back into one owned slab instead. That costs at most two entry copies
// per entry written, so a write stays O(1) amortized, and an array
// that was cloned once and is then only written, like a session's
// database, becomes one slab again.
//
// A relation of at most flatMax tuples is copied outright by Clone,
// index included: a batch of a few dozen writes touches about as many
// chunks, so below that size a copy is cheaper than sharing. An array that is one slab costs two
// words over a plain slice, so a small relation allocates what it did
// before chunking.
//
// Concurrency: Clone only reads the source, marking it shared with
// atomic stores, so any number of goroutines may Clone and read an
// array that nobody writes, such as a published view. Writes need
// exclusive access.

const (
	chunkShift = 5
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	// flatMax is the most tuples a relation Clone copies rather than
	// shares.
	flatMax = 64 * chunkLen
)

// genSeq hands out chunk-directory generations, all nonzero: a chunk
// cut from a shared slab carries generation zero, no array's own.
var genSeq atomic.Uint64

// cref is one directory entry: a chunk and the generation of the array
// that may write it in place. The chunk is a slice of up to chunkLen
// entries (only a chunk cut from the end of a slab is shorter), not an
// array pointer: indexing through a pointer would first load the
// chunk's first cache line as a nil check, a second miss per lookup.
type cref[T any] struct {
	p   []T
	gen uint64
}

// chunks is a copy-on-write array of T. The zero value is empty.
type chunks[T any] struct {
	// flat holds the entries unless c has a directory; while c is nil
	// the array owns it and writes in place.
	flat []T
	c    atomic.Pointer[chunkDir[T]]
}

// chunkDir is a shared or chunked array's state, kept out of line so an
// array that is one owned slab, as most are, stays two words over a
// slice. With dir nil it only marks flat as shared.
type chunkDir[T any] struct {
	gen atomic.Uint64
	n   int       // entries, once chunked
	dir []cref[T] // chunks covering [0, n) and more
	// spare is uncarved slab storage for chunk copies; carved counts
	// the chunks carved so far, the next slab's size.
	spare  []T
	carved int
	// work counts the entries written since the array was last one
	// slab, by it and the arrays it was cloned from, a chunk copy
	// counting chunkLen.
	work int
}

// len reports the number of entries.
func (a *chunks[T]) len() int {
	if a.flat != nil {
		return len(a.flat)
	}
	if c := a.c.Load(); c != nil {
		return c.n
	}
	return 0
}

// at returns entry i.
func (a *chunks[T]) at(i int) T {
	if a.flat != nil {
		return a.flat[i]
	}
	return a.c.Load().dir[i>>chunkShift].p[i&chunkMask]
}

// chunked returns the directory state of an array that does not own
// its slab, cutting the shared slab into chunks first.
func (a *chunks[T]) chunked() *chunkDir[T] {
	d := a.c.Load()
	if d.dir != nil {
		return d
	}
	s := a.flat[:cap(a.flat)]
	d = &chunkDir[T]{n: len(a.flat), dir: make([]cref[T], (len(s)+chunkMask)>>chunkShift)}
	d.gen.Store(genSeq.Add(1))
	for c := range d.dir {
		lo := c << chunkShift
		hi := min(lo+chunkLen, len(s))
		d.dir[c] = cref[T]{p: s[lo:hi:hi]}
	}
	a.flat = nil
	a.c.Store(d)
	return d
}

// ref returns entry i for writing, copying its chunk first if shared.
func (a *chunks[T]) ref(i int) *T {
	if a.c.Load() == nil {
		return &a.flat[i]
	}
	return a.refShared(i)
}

// refShared is ref for an array that does not own its slab.
func (a *chunks[T]) refShared(i int) *T {
	d := a.chunked()
	c := &d.dir[i>>chunkShift]
	g := d.gen.Load()
	cost := 1
	if c.gen != g {
		cost = chunkLen
	}
	left := len(d.dir)<<chunkShift/2 - d.work
	if left < cost {
		a.adopt(a.appendTo(make([]T, 0, len(d.dir)<<chunkShift)))
		return &a.flat[i]
	}
	d.work += cost
	if c.gen != g {
		p := d.carve(min(d.carved, left/chunkLen))
		copy(p, c.p)
		c.p, c.gen = p, g
	}
	return &c.p[i&chunkMask]
}

// carve takes one chunk from the current slab, allocating a slab of
// max(k, 1) chunks when it is used up.
func (d *chunkDir[T]) carve(k int) []T {
	if len(d.spare) == 0 {
		d.spare = make([]T, max(k, 1)*chunkLen)
	}
	p := d.spare[:chunkLen:chunkLen]
	d.spare = d.spare[chunkLen:]
	d.carved++
	return p
}

// push appends v.
func (a *chunks[T]) push(v T) {
	if a.c.Load() == nil {
		a.flat = append(a.flat, v)
		return
	}
	a.pushShared(v)
}

// pushShared is push for an array that does not own its slab.
func (a *chunks[T]) pushShared(v T) {
	if a.c.Load().dir == nil && len(a.flat) == cap(a.flat) {
		// append moves to a new slab of our own.
		a.flat = append(a.flat, v)
		a.c.Store(nil)
		return
	}
	d := a.chunked()
	if d.n == len(d.dir)<<chunkShift {
		d.dir = append(d.dir, cref[T]{d.carve(len(d.dir)), d.gen.Load()})
	}
	d.n++
	*a.ref(d.n - 1) = v // may compact; the slab then holds all d.n
}

// pop drops the last entry, clearing it so its storage holds no
// reference.
func (a *chunks[T]) pop() {
	var zero T
	*a.ref(a.len() - 1) = zero
	if a.flat != nil {
		a.flat = a.flat[:len(a.flat)-1]
	} else {
		a.c.Load().n--
	}
}

// adopt makes s, a slab the array then owns, its entries.
func (a *chunks[T]) adopt(s []T) {
	a.flat = s
	a.c.Store(nil)
}

// cloneInto makes out, a zero array, a copy of a: outright unless share
// is set, in which case out shares a's slab or chunks until either side
// writes them. An outright copy keeps a's spare capacity, so the
// clone's next push does not copy the whole array again.
func (a *chunks[T]) cloneInto(out *chunks[T], share bool) {
	n := a.len()
	if !share {
		if n > 0 {
			out.flat = a.appendTo(make([]T, 0, max(n, cap(a.flat))))
		}
		return
	}
	d := a.c.Load()
	if d == nil || d.dir == nil {
		if d == nil { // mark the slab shared: an empty chunkDir
			d = &chunkDir[T]{}
			a.c.Store(d)
		}
		out.flat = a.flat
		out.c.Store(d)
		return
	}
	d.gen.Store(genSeq.Add(1))
	od := &chunkDir[T]{n: n, dir: append([]cref[T](nil), d.dir...), work: d.work}
	od.gen.Store(genSeq.Add(1))
	out.c.Store(od)
}

// segs reports how many chunks seg can return.
func (a *chunks[T]) segs() int {
	if a.flat != nil {
		return 1
	}
	return (a.len() + chunkMask) >> chunkShift
}

// seg returns the entries of chunk c (the whole slab while flat), a view
// of the array's storage that the caller must not modify.
func (a *chunks[T]) seg(c int) []T {
	if a.flat != nil {
		return a.flat
	}
	d := a.c.Load()
	return d.dir[c].p[:min(d.n-c<<chunkShift, chunkLen)]
}

// appendTo appends the entries to dst in order.
func (a *chunks[T]) appendTo(dst []T) []T {
	for c, nc := 0, a.segs(); c < nc; c++ {
		dst = append(dst, a.seg(c)...)
	}
	return dst
}
