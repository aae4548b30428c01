package bench

import (
	"reflect"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
)

// Scaled-down workloads for the unit tests: one in process, one over the
// network front-end.
var (
	smallPipe = Spec{Name: "small-pipe", Emp: 64, Depts: 8, Clients: 1, Keys: 64, Window: 8, WarmOps: 16}
	smallNet  = Spec{Name: "small-net", Emp: 64, Depts: 8, Clients: 2, Keys: 64, Net: true, Window: 4, WarmOps: 16}
)

// stream generates n ops from a fresh client with a window of in-flight
// ops, acking (as applied) the oldest whenever the window is full. It
// fails the test if a generated op touches a key already in flight.
func stream(t *testing.T, spec Spec, seed int64, n int) []Op {
	t.Helper()
	c := NewClient(0, spec.Keys, spec.Depts, seed)
	var out, window []Op
	inFlight := map[int]bool{}
	for len(out) < n {
		if len(window) == spec.Window {
			c.Ack(window[0], true)
			delete(inFlight, window[0].Key)
			window = window[1:]
		}
		op := c.Next()
		if inFlight[op.Key] {
			t.Fatalf("op %d %+v touches a key already in flight", len(out), op)
		}
		inFlight[op.Key] = true
		window = append(window, op)
		out = append(out, op)
	}
	return out
}

// TestStreamDeterministic checks that a seed fixes the op stream, that
// another seed changes it, and that no key ever has two ops in flight.
func TestStreamDeterministic(t *testing.T) {
	for _, spec := range Specs {
		a := stream(t, spec, 1, 2000)
		b := stream(t, spec, 1, 2000)
		c := stream(t, spec, 2, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 1 gave two different streams", spec.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 1 and 2 gave the same stream", spec.Name)
		}
	}
}

// TestOpsTranslatable applies each workload's generated ops to a direct
// serial core.Session over its setup instance: every op must translate
// and change the view, as the workloads promise.
func TestOpsTranslatable(t *testing.T) {
	for _, spec := range append(Specs, smallPipe, smallNet) {
		t.Run(spec.Name, func(t *testing.T) {
			e, err := Setup(spec, 3, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			sess, err := core.NewSession(e.Pair, e.InitDB)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Clients[0]
			for i := 0; i < 500; i++ {
				op := c.Next()
				d, err := sess.Apply(e.UpdateOp(op))
				if err != nil || d.Reason == core.ReasonIdentity {
					t.Fatalf("op %d %+v: decision %+v, err %v", i, op, d, err)
				}
				c.Ack(op, true)
			}
			if err := e.checkView("serial session", sess.ViewRef(), e.EDM.Syms, e.Expected()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOracleCatchesDroppedAck runs a small in-process workload for real
// and checks the two gates that compare the program against the model:
// both pass, and both fail once one ack is dropped from the model.
func TestOracleCatchesDroppedAck(t *testing.T) {
	spec := smallPipe
	e, err := Setup(spec, 5, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up first: until the first commit there is no published view,
	// and an early read would count as failed.
	e.RunInProc(spec.WarmOps, 0, &Phase{}, nil)
	ph := &Phase{}
	e.RunInProc(400, 0, ph, nil)
	if ph.Failed != 0 || ph.Acked != 400 {
		t.Fatalf("%d acked, %d failed", ph.Acked, ph.Failed)
	}
	if err := e.CheckPublished(); err != nil {
		t.Fatal(err)
	}

	// Forget the last acked op: the model now lags the store by one.
	last := e.acked[len(e.acked)-1]
	c := e.Clients[last.Client]
	saved := append([]int(nil), c.dept...)
	c.dept[last.Key] = last.From
	if err := e.CheckPublished(); err == nil {
		t.Fatal("published view passed the gate with an ack dropped from the model")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.recoverOnce(e.Expected(), nil); err == nil {
		t.Fatal("recovered view passed the gate with an ack dropped from the model")
	}
	c.dept = saved
	if _, err := e.recoverOnce(e.Expected(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestFailuresCounted checks that ops the program refuses are counted as
// failed, not acked, so the correctness gate voids the run.
func TestFailuresCounted(t *testing.T) {
	e, err := Setup(smallPipe, 4, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Pipe.Close(); err != nil {
		t.Fatal(err)
	}
	ph := &Phase{}
	e.RunInProc(20, 0, ph, nil)
	if ph.Attempted != 20 || ph.Failed != 20 || ph.Acked != 0 {
		t.Fatalf("on a closed system %d attempted, %d failed, %d acked", ph.Attempted, ph.Failed, ph.Acked)
	}
	if ph.Failures() == nil {
		t.Fatal("the gate passed a phase with failed ops")
	}
	if err := e.Pipe.Store().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverPadsJournal checks that recovery replays exactly the padded
// journal, whatever length the run left.
func TestRecoverPadsJournal(t *testing.T) {
	e, err := Setup(smallPipe, 6, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	e.RunInProc(123, 0, &Phase{}, nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := e.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Replayed != padRecords || r.MS <= 0 {
			t.Fatalf("recovery %+v", r)
		}
	}
}

// TestReplayAgrees checks the traced run's serial replay on a small
// workload, and that it catches a model that disagrees with the acks.
func TestReplayAgrees(t *testing.T) {
	e, err := Setup(smallPipe, 9, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	e.RunInProc(300, 0, &Phase{}, nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	sp := NewSpans(1024)
	us, err := e.Replay(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 300 || len(Durations(sp.All(), SpanCoreReplayApply, 0)) != 300 {
		t.Fatalf("replayed %d ops, %d spans", len(us), len(sp.All()))
	}
	e.Initial["ghost"] = "dept0"
	if _, err := e.Replay(nil); err == nil {
		t.Fatal("replay agreed with a model that holds a row no op inserted")
	}
}
