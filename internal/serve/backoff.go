package serve

// backoff produces a deterministic capped exponential retry schedule:
// delay n is backoffBaseNS·2ⁿ clamped to backoffCapNS, with jitter
// drawn from a seeded splitmix64 stream into [delay/2, delay].
// Determinism is the point — the walltime discipline
// (internal/analysis) bans wall-clock reads outside internal/obs, and
// the chaos harness asserts that the same seed and fault schedule
// reproduce the exact same retry timings, so the jitter source must be
// a PRNG the caller seeds, never the clock.
//
// A backoff is owned by the pipeline's committer goroutine (which
// carries one per fault domain, with decorrelated seeds); it is not
// safe for concurrent use.
type backoff struct {
	attempt uint
	rng     uint64
}

func newBackoff(seed uint64) *backoff {
	return &backoff{rng: seed}
}

// rand advances the splitmix64 stream one step (Vigna's finalizer; the
// same mixer Go's runtime seeds maps with).
func (b *backoff) rand() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next returns the next delay in nanoseconds and escalates the attempt
// counter.
func (b *backoff) next() int64 {
	d := int64(backoffCapNS)
	if b.attempt < 63 {
		if shifted := int64(backoffBaseNS) << b.attempt; shifted > 0 && shifted < backoffCapNS {
			d = shifted
		}
	}
	b.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + int64(b.rand()%uint64(half+1))
}

// reset returns the schedule to the first rung after a success, keeping
// the jitter stream position (replayability needs the sequence of draws
// to be schedule-determined, not wall-clock-determined; it does not
// need the stream to rewind).
func (b *backoff) reset() { b.attempt = 0 }
