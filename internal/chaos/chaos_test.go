package chaos

import (
	"testing"
)

// mustRun executes a schedule and fails the test on harness errors or
// invariant violations.
func mustRun(t *testing.T, s Schedule) *Report {
	t.Helper()
	rep, err := Run(s)
	if err != nil {
		t.Fatalf("chaos.Run(%+v): %v", s, err)
	}
	if rep.Violation != "" {
		t.Fatalf("schedule %+v violated an invariant:\n%s", s, rep.Violation)
	}
	return rep
}

// TestRandomSchedules is the headline chaos sweep: ≥200 seed-derived
// schedules (scaled down under -short), each checked for zero acked-op
// loss and byte-identical serial-oracle state. The sweep must, in
// aggregate, exercise every fault kind.
func TestRandomSchedules(t *testing.T) {
	n, ops := 200, 40
	if testing.Short() {
		n, ops = 60, 24
	}
	covered := make(map[FaultKind]bool)
	var resurrections, retries int64
	sheds := 0
	for seed := uint64(1); seed <= uint64(n); seed++ {
		s := Generate(seed, ops)
		rep := mustRun(t, s)
		for k := range s.faults() {
			covered[k] = true
		}
		resurrections += rep.Resurrections
		retries += rep.Retries
		sheds += rep.Shed
	}
	for _, k := range []FaultKind{WriteFault, SyncFault, TornWrite, PowerLoss, QueueSat} {
		if !covered[k] {
			t.Errorf("sweep never scheduled fault kind %v", k)
		}
	}
	if resurrections == 0 {
		t.Error("sweep drove zero resurrections: the heal path never fired")
	}
	if retries == 0 {
		t.Error("sweep drove zero retries: the backoff path never fired")
	}
	if sheds == 0 {
		t.Error("sweep drove zero sheds: bounded admission never fired")
	}
}

// TestSchedulesDecideOnDeltaPath: the pipeline under faults decides on
// the delta path, the configuration the server ships, and not only on
// the full-path reference the oracle replays on.
func TestSchedulesDecideOnDeltaPath(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rep := mustRun(t, Generate(seed, 40))
		if rep.IncDecides == 0 {
			t.Errorf("seed %d: no decide ran on the delta path", seed)
		}
	}
}

// Per-kind recovery-path tests: each fault kind must provably trigger
// the recovery mechanism it exists to exercise.

func TestWriteFaultTriggersResurrection(t *testing.T) {
	rep := mustRun(t, Schedule{Seed: 7, Ops: 30,
		Storage: []StorageFault{{Kind: WriteFault, At: 2}}})
	if rep.Resurrections < 1 {
		t.Fatalf("write fault drove %d resurrections, want >= 1", rep.Resurrections)
	}
	if rep.Acked == 0 {
		t.Fatal("no ops acknowledged after write-fault recovery")
	}
}

func TestSyncFaultTriggersResurrection(t *testing.T) {
	rep := mustRun(t, Schedule{Seed: 8, Ops: 30,
		Storage: []StorageFault{{Kind: SyncFault, At: 2}}})
	if rep.Resurrections < 1 {
		t.Fatalf("sync fault drove %d resurrections, want >= 1", rep.Resurrections)
	}
}

func TestTornWriteTriggersResurrection(t *testing.T) {
	rep := mustRun(t, Schedule{Seed: 9, Ops: 30,
		Storage: []StorageFault{{Kind: TornWrite, At: 2, Keep: 7}}})
	if rep.Resurrections < 1 {
		t.Fatalf("torn write drove %d resurrections, want >= 1", rep.Resurrections)
	}
}

func TestPowerLossTriggersResurrection(t *testing.T) {
	rep := mustRun(t, Schedule{Seed: 10, Ops: 30,
		Storage: []StorageFault{{Kind: PowerLoss, At: 2}}})
	if rep.Resurrections < 1 {
		t.Fatalf("power loss drove %d resurrections, want >= 1", rep.Resurrections)
	}
}

func TestQueueSaturationTriggersShed(t *testing.T) {
	rep := mustRun(t, Schedule{Seed: 12, Ops: 30, QueueSat: true,
		Storage: []StorageFault{{Kind: SyncFault, At: 1}}})
	if rep.Shed < 1 {
		t.Fatalf("saturation burst drove %d sheds, want >= 1", rep.Shed)
	}
	if rep.Resurrections < 1 {
		t.Fatalf("saturation gate requires a resurrection, got %d", rep.Resurrections)
	}
}

// TestHealDuringHeal arms a sync fault at ordinal 1 of the SECOND
// epoch: recovery's own journal re-fsync is that epoch's first sync,
// so the resurrection itself fails once and the retry loop must carry
// the pipeline through.
func TestHealDuringHeal(t *testing.T) {
	rep := mustRun(t, Schedule{Seed: 13, Ops: 30, Storage: []StorageFault{
		{Kind: SyncFault, At: 2},
		{Kind: SyncFault, At: 1},
	}})
	if rep.Resurrections < 1 {
		t.Fatalf("got %d resurrections, want >= 1", rep.Resurrections)
	}
}

// TestScheduleReplayDeterminism runs the same multi-fault schedule
// twice and requires identical observable outcomes: journal bytes are
// batch-boundary-independent, so even with async submission windows
// the final recovered state and the per-op fates must replay exactly.
func TestScheduleReplayDeterminism(t *testing.T) {
	s := Schedule{Seed: 21, Ops: 40,
		Storage: []StorageFault{{Kind: SyncFault, At: 2}, {Kind: WriteFault, At: 3}}}
	a := mustRun(t, s)
	b := mustRun(t, s)
	if a.FinalState != b.FinalState {
		t.Fatalf("final state diverged between identical runs:\n1st: %s\n2nd: %s",
			a.FinalState, b.FinalState)
	}
	if a.JournalSeq != b.JournalSeq {
		t.Fatalf("journal seq diverged: %d vs %d", a.JournalSeq, b.JournalSeq)
	}
	if a.Acked != b.Acked || a.Rejected != b.Rejected || a.Shed != b.Shed || a.Failed != b.Failed {
		t.Fatalf("op fates diverged: %+v vs %+v", a, b)
	}
}

// TestGenerateDeterminism: the same (seed, ops) always derives the
// same schedule, and shrinking ops yields a prefix workload (the
// property Minimize relies on).
func TestGenerateDeterminism(t *testing.T) {
	a, b := Generate(5, 40), Generate(5, 40)
	if len(a.Storage) != len(b.Storage) || a.QueueSat != b.QueueSat {
		t.Fatalf("Generate not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Storage {
		if a.Storage[i] != b.Storage[i] {
			t.Fatalf("storage fault %d differs: %+v vs %+v", i, a.Storage[i], b.Storage[i])
		}
	}
	full, half := workload(5, 40), workload(5, 20)
	for i := range half {
		if full[i].kind != half[i].kind {
			t.Fatalf("workload is not prefix-stable at op %d", i)
		}
	}
}

// TestMinimize drives the reducer with an artificial predicate —
// "fails iff a SyncFault is present and at least 8 ops run" — and
// checks it strips every irrelevant ingredient.
func TestMinimize(t *testing.T) {
	s := Schedule{Seed: 3, Ops: 64,
		Storage: []StorageFault{
			{Kind: WriteFault, At: 2},
			{Kind: SyncFault, At: 1},
			{Kind: TornWrite, At: 3, Keep: 9},
		},
		QueueSat: true,
	}
	fails := func(c Schedule) bool {
		if c.Ops < 8 {
			return false
		}
		for _, f := range c.Storage {
			if f.Kind == SyncFault {
				return true
			}
		}
		return false
	}
	m := Minimize(s, fails, 16)
	if !fails(m) {
		t.Fatal("minimized schedule no longer satisfies the failure predicate")
	}
	if len(m.Storage) != 1 || m.Storage[0].Kind != SyncFault {
		t.Fatalf("storage faults not minimized: %+v", m.Storage)
	}
	if m.QueueSat {
		t.Fatal("queue saturation not disabled")
	}
	if m.Ops != 8 {
		t.Fatalf("ops not halved to the 1-minimal count: got %d, want 8", m.Ops)
	}
}

// TestMinimizeKeepsFailingInput: a schedule where nothing can be
// removed comes back unchanged.
func TestMinimizeKeepsFailingInput(t *testing.T) {
	s := Schedule{Seed: 2, Ops: 1,
		Storage: []StorageFault{{Kind: SyncFault, At: 1}}}
	fails := func(c Schedule) bool {
		return len(c.Storage) == 1 && c.Ops == 1
	}
	m := Minimize(s, fails, 4)
	if len(m.Storage) != 1 || m.Ops != 1 {
		t.Fatalf("irreducible schedule was altered: %+v", m)
	}
}
