package chase

import (
	"math/rand"
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
		}
	})
}
