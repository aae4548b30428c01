package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// crossModel is the client's serial oracle for a K-shard EDM instance:
// the view rows (employee → department) plus, per shard, how many rows
// of each department it holds — what decides whether a per-shard half
// is translatable.
type crossModel struct {
	m     *Multi
	dept  map[string]value.Value
	count []map[value.Value]int
	next  int
}

func newCrossModel(m *Multi, view *relation.Relation) *crossModel {
	cm := &crossModel{m: m, dept: map[string]value.Value{}, count: make([]map[value.Value]int, len(m.shards))}
	for i := range cm.count {
		cm.count[i] = map[value.Value]int{}
	}
	for _, row := range view.Tuples() {
		cm.add(m.syms.Name(row[0]), row[1])
	}
	return cm
}

func (cm *crossModel) tup(name string, d value.Value) relation.Tuple {
	return relation.Tuple{cm.m.syms.Const(name), d}
}

func (cm *crossModel) shardOf(name string) int { return cm.m.router.ShardOfName(name) }

func (cm *crossModel) add(name string, d value.Value) {
	cm.dept[name] = d
	cm.count[cm.shardOf(name)][d]++
}

func (cm *crossModel) remove(name string) {
	cm.count[cm.shardOf(name)][cm.dept[name]]--
	delete(cm.dept, name)
}

// fresh returns an unused employee name routed to shard k.
func (cm *crossModel) fresh(k int) string {
	for {
		cm.next++
		if name := fmt.Sprintf("x%d", cm.next); cm.shardOf(name) == k {
			return name
		}
	}
}

// removable reports whether deleting name leaves its department on its
// shard (condition (a) of the delete half).
func (cm *crossModel) removable(name string) bool {
	return cm.count[cm.shardOf(name)][cm.dept[name]] >= 2
}

// TestCrossShardRenameThenImmediateOp is the regression test for the
// race between a cross-shard rename and the next op on the moved key:
// Multi.ApplyAsync returns a two-phase rename as soon as both exclusive
// grants are released, and the client at once — no barrier, no wait
// for the shards to publish — submits an op on the key's new shard.
// That op must be decided against the state the rename left: over 10k
// ops on K = 2, no op may fail or come back as an identity, the union
// of the shards must equal the client's serial oracle, and the grants
// must not drop the shards' maintained delta state.
func TestCrossShardRenameThenImmediateOp(t *testing.T) {
	reg := obs.NewRegistry()
	core.SetMetrics(reg)
	defer core.SetMetrics(nil)

	const k, ops = 2, 10_000
	pair, db, syms := shardFixture(64)
	m, _ := mustOpen(t, shardFSs(store.NewMemFS(), k), pair, db, syms, Options{Shards: k})
	defer m.Close()
	cm := newCrossModel(m, viewOf(pair, db))
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()

	var pend []serve.Waiter
	var submitted []core.UpdateOp
	failed, identity := 0, 0
	settle := func() {
		for i, w := range pend {
			d, err := w.Wait()
			switch {
			case err != nil:
				failed++
				t.Errorf("op %v: %v", submitted[i].Kind, err)
			case d.Reason == core.ReasonIdentity:
				identity++
				t.Errorf("op %v acked as identity", submitted[i].Kind)
			}
		}
		pend, submitted = pend[:0], submitted[:0]
	}
	submit := func(op core.UpdateOp) {
		w, err := m.ApplyAsync(ctx, op)
		if err != nil {
			t.Fatalf("submit %v: %v", op.Kind, err)
		}
		pend = append(pend, w)
		submitted = append(submitted, op)
	}
	names := func() []string {
		out := make([]string, 0, len(cm.dept))
		for name := range cm.dept {
			out = append(out, name)
		}
		return out
	}

	// Rebuilds and grants are counted after a warm-up that builds each
	// shard's delta state.
	const warm = 200
	grants, n := 0, 0
	warmed := false
	var rebuildsAtWarm int64
	for n < ops {
		if n >= warm && !warmed {
			warmed = true
			rebuildsAtWarm = reg.Snapshot().Counters["core_inc_rebuild_total"]
			grants = 0
		}
		// A random employee, drawn from a sorted list so the stream is
		// reproducible.
		all := names()
		sort.Strings(all)
		name := all[rng.Intn(len(all))]
		if !cm.removable(name) {
			// Top the shard up instead: an insert into the department.
			k0 := cm.shardOf(name)
			nw := cm.fresh(k0)
			submit(core.Insert(cm.tup(nw, cm.dept[name])))
			cm.add(nw, cm.dept[name])
			n++
			continue
		}
		d := cm.dept[name]
		from := cm.shardOf(name)
		to := 1 - from
		if cm.count[to][d] == 0 {
			continue // the insert half needs the department on the target shard
		}
		// The cross-shard rename...
		moved := cm.fresh(to)
		submit(core.Replace(cm.tup(name, d), cm.tup(moved, d)))
		cm.remove(name)
		cm.add(moved, d)
		grants += 2
		n++
		// ...and at once an op on the moved key, on its new shard.
		switch {
		case rng.Intn(2) == 0 && cm.removable(moved):
			submit(core.Delete(cm.tup(moved, d)))
			cm.remove(moved)
		default:
			again := cm.fresh(to)
			submit(core.Replace(cm.tup(moved, d), cm.tup(again, d)))
			cm.remove(moved)
			cm.add(again, d)
		}
		n++
		if len(pend) >= 64 {
			settle()
		}
	}
	settle()
	if failed != 0 || identity != 0 {
		t.Fatalf("%d failed ops and %d identity acks over %d ops", failed, identity, n)
	}

	want := relation.New(pair.ViewAttrs())
	for name, d := range cm.dept {
		want.Insert(cm.tup(name, d))
	}
	waitView(t, m, want)
	// Each grant used to drop the shard's delta state, forcing one
	// rebuild per grant; now only tombstone compaction rebuilds it.
	rebuilds := reg.Snapshot().Counters["core_inc_rebuild_total"] - rebuildsAtWarm
	t.Logf("%d ops, %d exclusive grants after warm-up, %d delta-state rebuilds", n, grants, rebuilds)
	if rebuilds*4 > int64(grants) {
		t.Fatalf("core_inc_rebuild_total grew %d over %d exclusive grants", rebuilds, grants)
	}
}
