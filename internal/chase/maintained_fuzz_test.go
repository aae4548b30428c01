package chase

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// fmMaxSteps bounds one fuzz input's AddRow/RemoveRow stream: each step
// re-runs a batch chase of the live rows.
const fmMaxSteps = 200

// FuzzMaintained drives a Maintained through an AddRow/RemoveRow stream
// and, after every step, checks it against a from-scratch chase of the
// live rows: the same ConstClash and, over every live cell, the same
// Find representative (representatives are order-independent, so equal
// classes mean equal representatives).
//
// data[0] seeds the random FD set, data[1] picks its size (2 to 5 FDs)
// and a width of 3 or 4 columns, and the rest is the stream. An op byte
// b removes live row number b/3 (mod the live count) when b%3 == 0 and
// there is one; otherwise it adds a row whose column 0 is a fresh
// unique constant (as the view padding's key is) and whose other cells
// take one byte each: c%3 == 0 a fresh null, 1 the constant (c/3)%4, 2
// a repeat of a null already in this row (fresh when there is none).
// Rows never share a null, per RemoveRow's precondition.
//
// After every step that leaves the fixpoint unclashed, checkOverlay
// also imposes one or two random pairs of canonical values, on m
// through WithEqualities and on a Prepare of the live rows' batch
// chase, and checks both overlays against a from-scratch chase.
// Its pairs come from an rng seeded by data[0] and data[1], so they
// consume no stream bytes.
func FuzzMaintained(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 12, 60, 240} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	// Twelve rows of one of two constants and two fresh nulls, then
	// removals of the oldest live row: the detach path on rows whose
	// classes other rows still hold.
	nulls := []byte{7, 1}
	for i := 0; i < 12; i++ {
		nulls = append(nulls, 1, 3*byte(i%2)+1, 0, 0)
	}
	for i := 0; i < 12; i++ {
		nulls = append(nulls, 0)
	}
	f.Add(nulls)
	// Rows repeating a null in two columns force the re-chase fallback.
	f.Add([]byte{3, 1, 1, 0, 2, 0, 1, 4, 0, 2, 2, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		fx := newMaintainedFixture(rand.New(rand.NewSource(int64(data[0]))), 3+int(data[1]%2), 2+int(data[1]/2%4))
		orng := rand.New(rand.NewSource(int64(data[0])<<8 | int64(data[1])))
		w := fx.u.Size()
		data = data[2:]
		m := NewMaintained(fx.plans)
		live := map[int]relation.Tuple{}
		var ids []int
		for steps := 0; len(data) > 0 && steps < fmMaxSteps; steps++ {
			b := data[0]
			data = data[1:]
			if b%3 == 0 && len(ids) > 0 {
				k := int(b/3) % len(ids)
				id := ids[k]
				ids = append(ids[:k], ids[k+1:]...)
				delete(live, id)
				m.RemoveRow(id)
			} else {
				row := make(relation.Tuple, w)
				row[0] = value.Value(1000 + fx.next)
				fx.next++
				var own []value.Value
				for c := 1; c < w; c++ {
					var cb byte
					if len(data) > 0 {
						cb, data = data[0], data[1:]
					}
					switch {
					case cb%3 == 1:
						row[c] = value.Value(cb / 3 % 4)
					case cb%3 == 2 && len(own) > 0:
						row[c] = own[int(cb/3)%len(own)]
					default:
						row[c] = fx.gen.Fresh()
						own = append(own, row[c])
					}
				}
				id := m.AddRow(row)
				if _, dup := live[id]; dup {
					t.Fatalf("AddRow returned live id %d", id)
				}
				live[id] = row
				ids = append(ids, id)
			}
			checkAgainstBatch(t, fx, m, live)
			if m.Alive() != len(live) {
				t.Fatalf("Alive %d, %d live rows", m.Alive(), len(live))
			}
			if m.ConstClash() {
				// Latched broken: callers rebuild, so the stream ends.
				return
			}
			checkOverlay(t, fx, m, live, orng)
		}
	})
}

// checkOverlay imposes one or two random pairs of the live rows'
// canonical values on both kinds of fixpoint an Overlay layers over: on
// m through WithEqualities, and on the batch chase of the live rows
// through Prepare. It checks each overlay against the definition, as
// core's ImposeRebuild computes it: the live rows, canonicalized, with
// the pairs substituted in and chased from scratch. An overlay must
// clash exactly when that chase (or the substitution itself) equates
// two constants, and otherwise Same must partition the live rows' raw
// values exactly as the chase does.
func checkOverlay(t *testing.T, fx *maintainedFixture, m *Maintained, live map[int]relation.Tuple, rng *rand.Rand) {
	t.Helper()
	if len(live) == 0 {
		return
	}
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var raw, canon []value.Value
	seen := map[value.Value]bool{}
	for _, id := range ids {
		for _, v := range live[id] {
			if !seen[v] {
				seen[v] = true
				raw = append(raw, v)
			}
		}
	}
	seenCanon := map[value.Value]bool{}
	for _, v := range raw {
		if cv := m.Find(v); !seenCanon[cv] {
			seenCanon[cv] = true
			canon = append(canon, cv)
		}
	}
	var pairs [][2]value.Value
	for k := 0; k < 1+rng.Intn(2); k++ {
		pairs = append(pairs, [2]value.Value{canon[rng.Intn(len(canon))], canon[rng.Intn(len(canon))]})
	}

	// The definition: substitute the pairs (union tie-break: constants
	// win, else the numeric maximum), then chase.
	sub := map[value.Value]value.Value{}
	resolve := func(v value.Value) value.Value {
		for {
			n, ok := sub[v]
			if !ok {
				return v
			}
			v = n
		}
	}
	clash := false
	for _, pr := range pairs {
		a, b := resolve(pr[0]), resolve(pr[1])
		if a == b {
			continue
		}
		if a.IsConst() && b.IsConst() {
			clash = true
			break
		}
		if b.IsConst() || (!a.IsConst() && b > a) {
			a, b = b, a
		}
		sub[b] = a
	}
	var res *Result
	if !clash {
		rows := make([]relation.Tuple, 0, len(ids))
		for _, id := range ids {
			nt := make(relation.Tuple, len(live[id]))
			for c, v := range live[id] {
				nt[c] = resolve(m.Find(v))
			}
			rows = append(rows, nt)
		}
		res = fx.batchChase(rows)
		clash = res.ConstClash()
	}

	rows := make([]relation.Tuple, 0, len(ids))
	for _, id := range ids {
		rows = append(rows, live[id])
	}
	batch := fx.batchChase(rows)
	overlays := []struct {
		name string
		ov   *Overlay
		// canon maps a raw value to the form the overlay takes: the
		// Maintained overlay resolves raw values itself, the Prepared
		// one is over the batch chase's representatives.
		canon func(value.Value) value.Value
	}{
		{"maintained", m.WithEqualities(pairs), func(v value.Value) value.Value { return v }},
		{"prepared", Prepare(batch.Relation(), fx.fds).WithEqualities(pairs), batch.Find},
	}
	for _, o := range overlays {
		if o.ov.ConstClash() != clash {
			t.Fatalf("pairs %v: %s overlay clash=%v, chase clash=%v", pairs, o.name, o.ov.ConstClash(), clash)
		}
		if clash {
			continue
		}
		// Same(a, b) must hold exactly when the chase equates a and b:
		// map each chase class to the first raw value met in it, and
		// check every value against its class's first and every first
		// against the others through the overlay's representatives.
		first := map[value.Value]value.Value{}
		owner := map[value.Value]value.Value{}
		for _, v := range raw {
			want := res.Find(resolve(m.Find(v)))
			f, ok := first[want]
			if !ok {
				first[want] = v
				got := o.ov.resolve(o.canon(v))
				if w, dup := owner[got]; dup {
					t.Fatalf("pairs %v: Same(%v, %v) under the %s overlay, not under the chase", pairs, v, w, o.name)
				}
				owner[got] = v
				continue
			}
			if !o.ov.Same(o.canon(v), o.canon(f)) {
				t.Fatalf("pairs %v: Same(%v, %v) under the chase, not under the %s overlay", pairs, v, f, o.name)
			}
		}
	}
}
