package constcomp

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/value"
)

// TestHeapFlatInOpCount checks that a serving session's memory is
// bounded by its instance, not by the number of ops it has applied: a
// translation under a constant complement reads only the current view
// and the complement, so nothing per op may outlive the op. The
// pipeline runs the shipped defaults — incremental decide/apply on and
// default store.Options, so snapshots rotate and the MemFS journal
// stays bounded — and cycles insert/delete ops over a fixed set of
// pre-interned names. The live heap after 10N ops must stay within 10%
// of the live heap after N.
func TestHeapFlatInOpCount(t *testing.T) {
	const n = 20000
	t.Run("unsharded", func(t *testing.T) {
		pair, db, syms := benchWideFixture(128)
		st, err := store.Create(store.NewMemFS(), pair, db, syms, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := serve.New(st, serve.Options{MaxBatch: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		names := heapFlatNames(syms.Const)
		ctx := context.Background()
		window := make([]*serve.Pending, 0, 64)
		drain := func() {
			for _, w := range window {
				if _, err := w.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			window = window[:0]
		}
		// run applies ops [from, to): op i inserts names[i/2 mod k] when i
		// is even and deletes it again when i is odd, so the instance ends
		// every pair as it began.
		run := func(from, to int) {
			for i := from; i < to; i++ {
				tup := names[(i/2)%len(names)]
				op := core.Insert(tup)
				if i%2 == 1 {
					op = core.Delete(tup)
				}
				w, err := pipe.ApplyAsync(ctx, op)
				if err != nil {
					t.Fatal(err)
				}
				if window = append(window, w); len(window) == cap(window) {
					drain()
				}
			}
			drain()
		}
		run(0, n)
		h1 := liveHeap()
		run(n, 10*n)
		h10 := liveHeap()
		t.Logf("HeapAlloc after %d ops: %d B; after %d ops: %d B (%.3fx)",
			n, h1, 10*n, h10, float64(h10)/float64(h1))
		if float64(h10) > 1.1*float64(h1) {
			t.Errorf("live heap grew with op count: %d B after %d ops, %d B after %d ops",
				h1, n, h10, 10*n)
		}
	})
}

// heapFlatNames pre-interns the 16 view tuples the heap-flat workload
// cycles through (the committer reads interned constants concurrently
// with submission, and Symbols is not safe for concurrent interning).
func heapFlatNames(intern func(string) value.Value) []relation.Tuple {
	names := make([]relation.Tuple, 16)
	dept := intern("dept0")
	for i := range names {
		names[i] = relation.Tuple{intern(fmt.Sprintf("h%d", i)), dept}
	}
	return names
}

// liveHeap returns HeapAlloc after two collections: the second one
// frees what the first one's finalizers and sweeps released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
