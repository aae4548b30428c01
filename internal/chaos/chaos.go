// Package chaos drives seed-reproducible randomized fault schedules
// against the full serving pipeline (internal/serve over
// internal/store) and checks the two invariants the self-healing layer
// promises, whatever the faults:
//
//  1. No acknowledged op is lost: after a final power cut, recovery
//     finds exactly the acknowledged-applied ops, in order.
//  2. The final state is byte-identical to a serial fault-free oracle
//     replaying the acknowledged-applied ops in submission order on the
//     full decide path.
//
// The pipeline runs the configuration the server ships: its sessions
// decide on the delta path (core's incremental decide/apply), and the
// oracle is the full-path reference they must agree with.
//
// A Schedule is pure data: a seed, an op count, a sequence of storage
// faults (one per session epoch — the fault-injecting FaultFS arms a
// fresh plan at every resurrection), and an optional queue-saturation
// phase. Everything nondeterministic is derived from the seed: the
// workload, the backoff jitter (through serve's seeded backoff), and
// virtual time (obs.ManualClock) — the package never reads the wall
// clock and never spawns goroutines of its own, so the constvet
// walltime and rawgo gates apply in full.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/constcomp/constcomp/internal/attr"
	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/dep"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// FaultKind enumerates the fault classes a schedule can inject; each
// has a distinct recovery path in the pipeline.
type FaultKind uint8

const (
	// WriteFault fails a journal write outright (no bytes persisted).
	WriteFault FaultKind = iota
	// SyncFault fails a journal fsync after the bytes were written.
	SyncFault
	// TornWrite persists only a prefix of a journal write.
	TornWrite
	// PowerLoss is a SyncFault followed by a machine crash before
	// recovery: everything unsynced is really gone.
	PowerLoss
	// QueueSat saturates the bounded submit queue while the store heals.
	QueueSat
)

func (k FaultKind) String() string {
	switch k {
	case WriteFault:
		return "write-fault"
	case SyncFault:
		return "sync-fault"
	case TornWrite:
		return "torn-write"
	case PowerLoss:
		return "power-loss"
	case QueueSat:
		return "queue-saturation"
	}
	return "unknown"
}

// StorageFault is one scheduled storage fault. Faults are consumed one
// per session epoch: the first arms the session the pipeline starts on,
// each subsequent one arms the session resurrected after the previous
// fault fired. At is the 1-based ordinal of the faulted operation
// within its epoch, counting only journal-file operations (note that
// recovery itself re-fsyncs the journal once, so a SyncFault with At=1
// fires during recovery, testing the heal-during-heal path).
type StorageFault struct {
	Kind  FaultKind `json:"kind"` // WriteFault, SyncFault, TornWrite, or PowerLoss
	At    int       `json:"at"`
	Keep  int       `json:"keep,omitempty"` // torn-write bytes kept
	Crash bool      `json:"crash,omitempty"`
}

// crashes reports whether the epoch ends in a power cut before
// recovery.
func (f StorageFault) crashes() bool { return f.Crash || f.Kind == PowerLoss }

// Schedule is one reproducible chaos scenario.
type Schedule struct {
	Seed uint64 `json:"seed"`
	Ops  int    `json:"ops"`
	// Storage faults, one per epoch, in firing order.
	Storage []StorageFault `json:"storage,omitempty"`
	// QueueSat adds a saturation burst while the first healing episode
	// holds the committer, proving overload shedding under degradation.
	QueueSat bool `json:"queue_sat,omitempty"`
}

// faults summarizes which fault kinds the schedule exercises.
func (s Schedule) faults() map[FaultKind]bool {
	out := make(map[FaultKind]bool)
	for _, f := range s.Storage {
		out[f.Kind] = true
		if f.crashes() {
			out[PowerLoss] = true
		}
	}
	if s.QueueSat {
		out[QueueSat] = true
	}
	return out
}

// Generate derives a randomized schedule from a seed: 1–3 storage
// faults of random kinds and ordinals, and an occasional
// queue-saturation phase. The same (seed, ops) always yields the same
// schedule.
func Generate(seed uint64, ops int) Schedule {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := Schedule{Seed: seed, Ops: ops}
	nf := 1 + rng.Intn(3)
	for i := 0; i < nf; i++ {
		f := StorageFault{At: 1 + rng.Intn(6)}
		switch rng.Intn(4) {
		case 0:
			f.Kind = WriteFault
		case 1:
			f.Kind = SyncFault
		case 2:
			f.Kind = TornWrite
			f.Keep = rng.Intn(40)
		default:
			f.Kind = PowerLoss
		}
		if f.Kind == SyncFault && rng.Intn(2) == 0 {
			f.Crash = true
		}
		s.Storage = append(s.Storage, f)
	}
	s.QueueSat = rng.Intn(4) == 0
	return s
}

// Report is the observable outcome of one schedule run.
type Report struct {
	// Per-op fates over the base workload plus any saturation burst.
	Acked    int // acknowledged applied
	Rejected int // acknowledged untranslatable (paper-mandated rejections)
	Shed     int // refused by bounded admission
	Failed   int // failed with a (permanent or latched) error

	Resurrections int64
	Retries       int64
	// IncDecides counts the pipeline's decides answered on the delta
	// path: core_inc_decide_total less the decides of recovery replays.
	IncDecides int64
	Latched    bool // healing exhausted; pipeline ended latched broken

	// FinalState is the canonical rendering of the state a post-crash
	// recovery reconstructs; JournalSeq its op count.
	FinalState string
	JournalSeq uint64

	// Violation is empty when both invariants held.
	Violation string
}

// fixture is the paper's §2 Employee–Department–Manager schema, view
// X = ED under constant complement Y = DM.
func fixture() (*core.Pair, *relation.Relation, *value.Symbols) {
	u := attr.MustUniverse("E", "D", "M")
	sigma := dep.MustParseSet(u, "E -> D\nD -> M")
	s := core.MustSchema(u, sigma)
	pair := core.MustPair(s, u.MustSet("E", "D"), u.MustSet("D", "M"))
	syms := value.NewSymbols()
	db := relation.New(u.All())
	for i := 0; i < 4; i++ {
		db.Insert(relation.Tuple{
			syms.Const(fmt.Sprintf("emp%d", i)),
			syms.Const(fmt.Sprintf("dept%d", i%2)),
			syms.Const(fmt.Sprintf("mgr%d", i%2)),
		})
	}
	return pair, db, syms
}

// namedOp mirrors the workload symbol-table-free so the oracle can
// replay it against an independent session.
type namedOp struct {
	kind core.UpdateKind
	tup  []string
	with []string
}

func (n namedOp) op(syms *value.Symbols) core.UpdateOp {
	mk := func(names []string) relation.Tuple {
		t := make(relation.Tuple, len(names))
		for i, s := range names {
			t[i] = syms.Const(s)
		}
		return t
	}
	switch n.kind {
	case core.UpdateInsert:
		return core.Insert(mk(n.tup))
	case core.UpdateDelete:
		return core.Delete(mk(n.tup))
	default:
		return core.Replace(mk(n.tup), mk(n.with))
	}
}

// workload derives a deterministic op mix from the seed: translatable
// inserts and deletes, cross-department replaces, and condition-(a)
// rejections.
func workload(seed uint64, n int) []namedOp {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5bf03635))
	ops := make([]namedOp, 0, n)
	for i := 0; i < n; i++ {
		e := fmt.Sprintf("w%03d", rng.Intn(30))
		d := fmt.Sprintf("dept%d", rng.Intn(2))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			ops = append(ops, namedOp{kind: core.UpdateInsert, tup: []string{e, d}})
		case 5, 6, 7:
			ops = append(ops, namedOp{kind: core.UpdateDelete, tup: []string{e, d}})
		case 8:
			ops = append(ops, namedOp{kind: core.UpdateReplace,
				tup: []string{e, d}, with: []string{e, fmt.Sprintf("dept%d", rng.Intn(2))}})
		default:
			ops = append(ops, namedOp{kind: core.UpdateInsert,
				tup: []string{e, fmt.Sprintf("nodept%d", rng.Intn(3))}})
		}
	}
	return ops
}

// render canonicalizes a relation for cross-session comparison.
func render(r *relation.Relation, syms *value.Symbols) string {
	lines := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		fields := make([]string, len(t))
		for i, v := range t {
			fields[i] = syms.Name(v)
		}
		lines = append(lines, strings.Join(fields, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// plan converts a StorageFault to the FaultFS plan arming one epoch.
func (f StorageFault) plan() store.FaultPlan {
	match := func(name string) bool { return name == store.JournalFile }
	switch f.Kind {
	case WriteFault:
		return store.FaultPlan{Match: match, FailWriteAt: f.At}
	case TornWrite:
		return store.FaultPlan{Match: match, TearWriteAt: f.At, TearKeep: f.Keep}
	default: // SyncFault, PowerLoss
		return store.FaultPlan{Match: match, FailSyncAt: f.At}
	}
}

const snapEvery = 1 << 20 // never rotate mid-run; rotation is store_test's domain

// Run executes one schedule against a fresh pipeline and checks the
// invariants. A non-nil error reports harness failure (the run could
// not be driven); invariant breaks are reported in Report.Violation so
// the caller (and the reducer) can distinguish "pipeline broke its
// promise" from "schedule could not run".
func Run(s Schedule) (*Report, error) {
	reg := obs.NewRegistry()
	serve.SetMetrics(reg)
	defer serve.SetMetrics(nil)
	core.SetMetrics(reg)
	defer core.SetMetrics(nil)

	if s.QueueSat {
		// The saturation gate parks the committer inside the FIRST
		// resurrection, so a resurrection must provably happen: force a
		// trigger fault onto the very first batch (the one submission
		// that can never shed).
		if len(s.Storage) == 0 {
			s.Storage = []StorageFault{{Kind: SyncFault, At: 1}}
		} else {
			s.Storage[0].At = 1
		}
	}

	pair, db, syms := fixture()
	mem := store.NewMemFS()
	epoch := 0
	nextFS := func() store.FS {
		if epoch < len(s.Storage) {
			return store.NewFaultFS(mem, s.Storage[epoch].plan())
		}
		return mem
	}
	st, err := store.Create(nextFS(), pair, db, syms, store.Options{SnapshotEvery: snapEvery})
	if err != nil {
		return nil, fmt.Errorf("chaos: create: %w", err)
	}
	// Queue-saturation gate: the first resurrection parks the committer
	// until the burst has been submitted, making the shed deterministic
	// (nothing can drain while the gate holds).
	var healingStarted chan struct{}
	var release chan struct{}
	if s.QueueSat {
		healingStarted = make(chan struct{}, 1)
		release = make(chan struct{})
	}
	// Recovery replays journal records through the same decide; those
	// are not the pipeline's, so IncDecides leaves them out.
	incDecides := reg.Counter("core_inc_decide_total")
	var replayDecides int64
	resurrect := func() (*store.Session, error) {
		if s.QueueSat {
			select {
			case healingStarted <- struct{}{}:
			default:
			}
			<-release // closed after the burst; later heals pass through
		}
		if epoch < len(s.Storage) && s.Storage[epoch].crashes() {
			mem.Crash()
		}
		epoch++
		n0 := incDecides.Value()
		ns, _, rerr := store.Recover(nextFS(), pair, syms, store.Options{SnapshotEvery: snapEvery})
		replayDecides += incDecides.Value() - n0
		return ns, rerr
	}

	opts := serve.Options{
		MaxBatch:  4,
		Resurrect: resurrect,
		Clock:     obs.NewManualClock(),
		Seed:      s.Seed,
	}
	if s.QueueSat {
		opts.QueueDepth = 8
		opts.ShedOnFull = true
	}
	pipe, err := serve.New(st, opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: pipeline: %w", err)
	}

	ops := workload(s.Seed, s.Ops)
	rep := &Report{}
	// acked collects the ops acknowledged as applied, in submission
	// order — the oracle's input.
	var acked []namedOp
	settle := func(n namedOp, err error) {
		switch {
		case err == nil:
			rep.Acked++
			acked = append(acked, n)
		case errors.Is(err, core.ErrRejected):
			rep.Rejected++
		case errors.Is(err, serve.ErrShed):
			rep.Shed++
		default:
			rep.Failed++
			if errors.Is(err, store.ErrSessionBroken) {
				rep.Latched = true
			}
		}
	}

	if s.QueueSat {
		// Async-submit everything, then burst past total buffering while
		// the gate provably stalls the committer.
		type pending struct {
			n namedOp
			h *serve.Pending
		}
		var pend []pending
		// Guaranteed-translatable trigger: the forced At=1 fault needs at
		// least one journal write to fire, whatever the workload mix.
		trigger := namedOp{kind: core.UpdateInsert, tup: []string{"trigger00", "dept0"}}
		if h, err := pipe.ApplyAsync(context.Background(), trigger.op(syms)); err != nil {
			settle(trigger, err)
		} else {
			pend = append(pend, pending{n: trigger, h: h})
		}
		for _, n := range ops {
			h, err := pipe.ApplyAsync(context.Background(), n.op(syms))
			if err != nil {
				settle(n, err)
				continue
			}
			pend = append(pend, pending{n: n, h: h})
		}
		<-healingStarted
		// Total buffering with the committer parked: queue (8) + the
		// batch being healed (4) = 12; a burst of 40 must shed.
		for j := 0; j < 40; j++ {
			n := namedOp{kind: core.UpdateInsert,
				tup: []string{fmt.Sprintf("sat%02d", j), "dept0"}}
			h, err := pipe.ApplyAsync(context.Background(), n.op(syms))
			if err != nil {
				settle(n, err)
				continue
			}
			pend = append(pend, pending{n: n, h: h})
		}
		close(release)
		for _, p := range pend {
			_, err := p.h.Wait()
			settle(p.n, err)
		}
	} else {
		// Async windows with a drain barrier per window: group commit
		// stays exercised, outcomes stay order-deterministic.
		const window = 6
		for lo := 0; lo < len(ops); lo += window {
			hi := lo + window
			if hi > len(ops) {
				hi = len(ops)
			}
			handles := make([]*serve.Pending, hi-lo)
			for i := lo; i < hi; i++ {
				h, err := pipe.ApplyAsync(context.Background(), ops[i].op(syms))
				if err != nil {
					settle(ops[i], err)
					continue
				}
				handles[i-lo] = h
			}
			for i, h := range handles {
				if h == nil {
					continue
				}
				_, err := h.Wait()
				settle(ops[lo+i], err)
			}
		}
	}
	if err := pipe.Close(); err != nil {
		rep.Latched = true
	}
	snap := reg.Snapshot()
	rep.Resurrections = snap.Counters["serve_resurrections_total"]
	rep.Retries = snap.Counters["serve_retries_total"]
	rep.IncDecides = snap.Counters["core_inc_decide_total"] - replayDecides

	// Invariant 1 — no acked op lost: cut the power, recover from what
	// is durable, and count.
	mem.Crash()
	oracleSyms := value.NewSymbols()
	final, _, err := store.Recover(mem, pair, oracleSyms, store.Options{})
	if err != nil {
		rep.Violation = fmt.Sprintf("post-crash recovery failed: %v", err)
		return rep, nil
	}
	rep.JournalSeq = final.Seq()
	rep.FinalState = render(final.Database(), oracleSyms)
	final.Close()
	if rep.JournalSeq != uint64(len(acked)) {
		rep.Violation = fmt.Sprintf("acked-op loss: recovered %d ops, acknowledged %d",
			rep.JournalSeq, len(acked))
		return rep, nil
	}

	// Invariant 2 — serial fault-free oracle equivalence: a plain core
	// session on the full decide path replaying the acked ops in
	// submission order must accept every one and land on the identical
	// state.
	opair, odb, osyms := fixture()
	oracle, err := core.NewSession(opair, odb)
	if err != nil {
		return nil, fmt.Errorf("chaos: oracle: %w", err)
	}
	oracle.SetIncremental(false)
	for i, n := range acked {
		if _, err := oracle.Apply(n.op(osyms)); err != nil {
			rep.Violation = fmt.Sprintf("acked op %d (%v %v) fails on the serial oracle: %v",
				i, n.kind, n.tup, err)
			return rep, nil
		}
	}
	if want := render(oracle.Database(), osyms); rep.FinalState != want {
		rep.Violation = fmt.Sprintf("state divergence from serial oracle:\n got: %s\nwant: %s",
			rep.FinalState, want)
	}
	return rep, nil
}
