package chaos

// Minimize shrinks a failing schedule while preserving failure, in the
// spirit of delta debugging: each round tries dropping one storage
// fault, disabling the saturation phase, and halving the workload, keeping any variant for
// which fails still reports true. Rounds repeat until a full round
// makes no progress (or the round budget runs out), so the result is
// 1-minimal with respect to these transformations. fails must be
// deterministic — with chaos.Run as the predicate that holds by
// construction, since a Schedule fixes the seed.
func Minimize(s Schedule, fails func(Schedule) bool, rounds int) Schedule {
	if rounds <= 0 {
		rounds = 8
	}
	for r := 0; r < rounds; r++ {
		improved := false

		// Drop storage faults one at a time; first droppable wins the
		// round (later ones get their turn next round).
		for i := 0; i < len(s.Storage); i++ {
			c := s
			c.Storage = make([]StorageFault, 0, len(s.Storage)-1)
			c.Storage = append(c.Storage, s.Storage[:i]...)
			c.Storage = append(c.Storage, s.Storage[i+1:]...)
			if fails(c) {
				s = c
				improved = true
				break
			}
		}

		// Disable the saturation phase.
		if s.QueueSat {
			c := s
			c.QueueSat = false
			if fails(c) {
				s = c
				improved = true
			}
		}

		// Halve the workload. workload(seed, n/2) is a strict prefix of
		// workload(seed, n), so halving only removes trailing ops.
		if s.Ops > 1 {
			c := s
			c.Ops = s.Ops / 2
			if fails(c) {
				s = c
				improved = true
			}
		}

		if !improved {
			break
		}
	}
	return s
}
