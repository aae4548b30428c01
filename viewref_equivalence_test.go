package constcomp

// Byte-level equivalence for the delta-scoped view refresh
// (core.Session.ViewRef): the session's one view image — the
// incremental state's, patched per applied op and never re-projected
// on the happy path — must render byte-identically to a full
// re-projection of the database at every step, across mixed op streams
// (inserts, Thm-8 deletes, Thm-9 replacements, identity translations,
// rejections), forced invalidations, incremental-path toggles, and a
// write landing on the store between pipeline batches. The published
// ref must also be immutable: a ref handed to a reader keeps rendering
// the same bytes while later ops change the session's image, which
// clones itself before the first change after a ref was handed out.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
	"github.com/constcomp/constcomp/internal/workload"
)

// renderView serializes a view deterministically: rows sorted on all
// attributes, constants by name, tab/newline separated. Two relations
// with the same tuples render to the same bytes, so bytes.Equal is set
// equality made observable.
func renderView(r *relation.Relation, syms *value.Symbols) []byte {
	var buf bytes.Buffer
	for _, t := range r.Sorted(r.Attrs()) {
		for i, v := range t {
			if i > 0 {
				buf.WriteByte('\t')
			}
			buf.WriteString(syms.Name(v))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestViewRefEquivalenceRandomized drives 1500 mixed ops through one
// session and checks after every op that ViewRef() renders to exactly
// the bytes of Database().Project(ED) — with invalidations and
// incremental toggles sprinkled in so the patched, rebuilt, and
// re-projected images all cross-check.
func TestViewRefEquivalenceRandomized(t *testing.T) {
	e := workload.NewEDM()
	pair := core.MustPair(e.Schema, e.ED, e.DM)
	sess, err := core.NewSession(pair, e.Instance(48, 8))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	emp := func() string { return fmt.Sprintf("w%03d", rng.Intn(64)) }
	type held struct {
		ref   *relation.Relation
		bytes []byte
		at    int
	}
	var snapshots []held
	applied, identity, rejected := 0, 0, 0
	for i := 0; i < 1500; i++ {
		switch rng.Intn(20) {
		case 0:
			sess.InvalidateDeltas() // drops the maintained image too
		case 1:
			sess.SetIncremental(false)
			sess.SetIncremental(true)
		}
		var op core.UpdateOp
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			op = core.Insert(e.NewEmployeeTuple(emp(), rng.Intn(8)))
		case 4, 5, 6:
			op = core.Delete(e.NewEmployeeTuple(emp(), rng.Intn(8)))
		case 7, 8:
			op = core.Replace(e.NewEmployeeTuple(emp(), rng.Intn(8)),
				e.NewEmployeeTuple(emp(), rng.Intn(8)))
		default:
			// No such department: condition (a) rejection; the view must
			// not move.
			op = core.Insert(e.NewEmployeeTuple(emp(), 8+rng.Intn(3)))
		}
		d, err := sess.Apply(op)
		switch {
		case err == nil && d != nil && d.Reason == core.ReasonIdentity:
			applied, identity = applied+1, identity+1
		case err == nil:
			applied++
		default:
			rejected++
		}

		got := renderView(sess.ViewRef(), e.Syms)
		want := renderView(sess.Database().Project(e.ED), e.Syms)
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d (%v, err=%v): patched view diverged from re-projection\npatched:\n%s\nprojected:\n%s",
				i, op.Kind, err, got, want)
		}
		// Hold a few refs and re-render them later: published refs are
		// immutable under subsequent patches (copy-on-write).
		if i%250 == 0 {
			snapshots = append(snapshots, held{ref: sess.ViewRef(), bytes: got, at: i})
		}
	}
	for _, s := range snapshots {
		if got := renderView(s.ref, e.Syms); !bytes.Equal(got, s.bytes) {
			t.Errorf("ref held at op %d mutated under later patches", s.at)
		}
	}
	// The stream must actually have exercised every outcome class.
	if applied == 0 || identity == 0 || rejected == 0 {
		t.Fatalf("weak stream: %d applied (%d identity), %d rejected", applied, identity, rejected)
	}
}

// TestViewRefEquivalencePipelineInterleavedWrite runs the check through
// the serving pipeline: a write applied to the store directly, between
// batches, must be seen by the next op the committer decides; after the
// stream drains, the store session's patched view and the pipeline's
// last published view must both render to the bytes of a full
// re-projection.
func TestViewRefEquivalencePipelineInterleavedWrite(t *testing.T) {
	e := workload.NewEDM()
	pair := core.MustPair(e.Schema, e.ED, e.DM)
	st, err := store.Create(store.NewMemFS(), pair, e.Instance(16, 4), e.Syms,
		store.Options{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.New(st, serve.Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := pipe.Apply(core.Insert(e.NewEmployeeTuple(fmt.Sprintf("pre%d", i), i%4))); err != nil {
			t.Fatal(err)
		}
	}
	// Behind the pipeline's back: emp0 leaves dept0, so the insert below
	// is translatable only if the committer decides against the store's
	// current state. The direct write is safe because the committer
	// leaves the session alone between batches: it publishes each
	// batch's view before it acks, so once pipe.Apply returns it has
	// finished with the session until the next submit.
	if _, err := st.Apply(core.Delete(e.NewEmployeeTuple("emp0", 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Apply(core.Insert(e.NewEmployeeTuple("emp0", 1))); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		w := fmt.Sprintf("post%d", rng.Intn(32))
		var op core.UpdateOp
		switch rng.Intn(3) {
		case 0:
			op = core.Insert(e.NewEmployeeTuple(w, rng.Intn(4)))
		case 1:
			op = core.Delete(e.NewEmployeeTuple(w, rng.Intn(4)))
		default:
			op = core.Replace(e.NewEmployeeTuple(w, rng.Intn(4)),
				e.NewEmployeeTuple(w, rng.Intn(4)))
		}
		_, _ = pipe.Apply(op) // rejections are part of the stream
	}

	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains the queue; the last published view is final.
	published, _, _ := pipe.Published()
	want := renderView(st.Database().Project(e.ED), e.Syms)
	if got := renderView(st.ViewRef(), e.Syms); !bytes.Equal(got, want) {
		t.Fatal("store session's patched view diverged from re-projection")
	}
	if published == nil {
		t.Fatal("pipeline never published a view")
	}
	if got := renderView(published, e.Syms); !bytes.Equal(got, want) {
		t.Fatal("pipeline's final published view diverged from re-projection")
	}
}
