package netserve

import (
	"context"
	"fmt"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/shard"
	"github.com/constcomp/constcomp/internal/value"
)

// backend is what a named view needs from whatever serves it: a single
// self-healing pipeline or a sharded multi-store. *shard.Multi
// satisfies it directly; the unsharded pipeline is adapted by
// pipelineBackend.
type backend interface {
	// ApplyAsync enqueues one op and returns its pending ack.
	ApplyAsync(ctx context.Context, op core.UpdateOp) (serve.Waiter, error)
	// Published returns the view to serve a read from right now, its
	// sequence number, and whether any part of the backend is degraded.
	Published() (*relation.Relation, uint64, bool)
	// DegradedFor reports degradation scoped to the state these ops
	// would touch: on a sharded backend one broken shard degrades only
	// submissions routed to its key range.
	DegradedFor(ops []core.UpdateOp) bool
	// ShardStatuses returns per-shard health, nil when unsharded.
	ShardStatuses() []shard.ShardStatus
	// Close drains the backend and closes its stores.
	Close() error
}

// pipelineBackend adapts one serve.Pipeline to backend.
type pipelineBackend struct {
	pipe *serve.Pipeline
}

func (b *pipelineBackend) ApplyAsync(ctx context.Context, op core.UpdateOp) (serve.Waiter, error) {
	pend, err := b.pipe.ApplyAsync(ctx, op)
	if err != nil {
		return nil, err
	}
	return pend, nil
}

func (b *pipelineBackend) Published() (*relation.Relation, uint64, bool) {
	return b.pipe.Published()
}

// DegradedFor on a single pipeline is placement-blind: every op lands
// on the one store, so its health is the answer regardless of ops.
func (b *pipelineBackend) DegradedFor([]core.UpdateOp) bool { return b.pipe.Degraded() }

func (b *pipelineBackend) ShardStatuses() []shard.ShardStatus { return nil }

// Close drains the pipeline, then closes its current store session
// (which a resurrection may have swapped since the view was added).
func (b *pipelineBackend) Close() error {
	err := b.pipe.Close()
	if serr := b.pipe.Store().Close(); err == nil {
		err = serr
	}
	return err
}

// AddSharded exposes an opened sharded multi-store as
// /v1/views/{name}: submissions route by key through the multi-store's
// placement table, reads serve the union of the shard views, and the
// degraded header is scoped per shard — one broken shard degrades only
// requests touching its key range. syms must be the symbol table the
// multi-store journals with. On success the server owns m (Close
// closes it); on error the caller still does.
func (s *Server) AddSharded(name string, m *shard.Multi, syms *value.Symbols) error {
	if name == "" {
		return fmt.Errorf("netserve: empty view name")
	}
	u := m.Pair().Schema().Universe()
	ids := m.Pair().ViewAttrs().IDs()
	attrs := make([]string, len(ids))
	for i, id := range ids {
		attrs[i] = u.Name(id)
	}
	vs := &viewState{
		name:  name,
		be:    m,
		syms:  syms,
		attrs: attrs,
		width: len(attrs),
	}
	s.mu.Lock()
	_, dup := s.views[name]
	if !dup {
		s.views[name] = vs
	}
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("netserve: view %q already registered", name)
	}
	return nil
}
