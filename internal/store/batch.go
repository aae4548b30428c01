package store

import (
	"context"
	"errors"
	"fmt"

	"github.com/constcomp/constcomp/internal/core"
)

// Group commit: a batch of ops is applied in memory one by one, their
// records are appended to a single buffer (the session's, reused from
// batch to batch), and the buffer goes to the journal in ONE Write and
// ONE Sync. Per-op durability semantics
// are preserved — no op in the batch is acknowledged before the shared
// fsync returns — and so is crash safety: a batch is framed as plain
// concatenated records, so a crash mid-write leaves a prefix of whole
// records and the ordinary torn-tail recovery truncates at the last
// intact one. No recovery changes are needed for batches.

// BatchItem is the per-op outcome of a batch apply. Err is nil when the
// op was applied (and, once the batch call returns without
// ErrSessionBroken, durable); it wraps core.ErrRejected for
// untranslatable ops and carries the decide/translate error otherwise.
// In both failure cases the database is unchanged by that op.
type BatchItem struct {
	Decision *core.Decision
	Err      error
}

// ApplyBatchCtx applies ops as one group commit. Every op is attempted
// independently: a rejection or a per-op error (budget trip, context
// cancellation) is recorded in its BatchItem and does not stop the
// batch — the semantics of concurrent submitters whose ops happen to
// share an fsync, not of a script. Applied ops are journaled together
// with a single fsync; they are durable when the call returns, even
// when some items carry errors. The returned error is non-nil only when
// the session is (or becomes) broken — then items reports how far the
// batch got, and applied ops' durability is indeterminate (see
// ErrSessionBroken).
func (s *Session) ApplyBatchCtx(ctx context.Context, ops []core.UpdateOp) ([]BatchItem, error) {
	return s.applyBatch(batchOps(ctx, ops), nil, false)
}

// ApplyBatch is ApplyBatchCtx without a context bound.
func (s *Session) ApplyBatch(ops []core.UpdateOp) ([]BatchItem, error) {
	return s.ApplyBatchCtx(context.Background(), ops)
}

// BatchOp is one member of a group commit: the op and the context that
// bounds its decide. Each op carries its own context, so one member's
// deadline, cancellation or budget plan never bounds another's.
type BatchOp struct {
	Ctx context.Context
	Op  core.UpdateOp
}

// RetryFunc decides whether a failed op of a batch is re-applied in
// place, before any later op: i indexes the op, attempt counts its
// earlier failures (0 on the first), and err is the failure. Rejections
// are outcomes, not failures, and are never offered for retry.
type RetryFunc func(i, attempt int, err error) bool

// BatchSource yields the members of a group commit in order: it is
// called with i = 0, 1, … and returns ok=false to close the batch, and
// it is not called again after that. A member yielded after the earlier
// ones were applied still shares their write and fsync: the batch is
// journaled only once its source closes.
type BatchSource func(i int) (op BatchOp, ok bool)

// Ops is the BatchSource of a fixed list of members.
func Ops(ops []BatchOp) BatchSource {
	return func(i int) (BatchOp, bool) {
		if i < len(ops) {
			return ops[i], true
		}
		return BatchOp{}, false
	}
}

// ApplyOpsCtx is ApplyBatchCtx with a context per op, the members
// pulled from next until it closes, and an optional in-place retry
// policy (nil never retries). A failed apply never touches the session,
// so a retry decides from exactly the state the failed attempt saw.
// Journaling, durability and crash semantics are those of
// ApplyBatchCtx; items[i] is the outcome of the i-th member.
func (s *Session) ApplyOpsCtx(next BatchSource, retry RetryFunc) ([]BatchItem, error) {
	return s.applyBatch(next, retry, false)
}

func batchOps(ctx context.Context, ops []core.UpdateOp) BatchSource {
	out := make([]BatchOp, len(ops))
	for i, op := range ops {
		out[i] = BatchOp{Ctx: ctx, Op: op}
	}
	return Ops(out)
}

// applyBatch is the group-commit engine. With stopOnErr the loop stops
// at the first rejection or error (script semantics, backing ApplyAll);
// without it every op is attempted (pipeline semantics). Either way the
// applied prefix is journaled in one write + one fsync before
// returning, so in-memory state never runs ahead of an acknowledgement.
func (s *Session) applyBatch(next BatchSource, retry RetryFunc, stopOnErr bool) ([]BatchItem, error) {
	if s.broken != nil {
		return nil, fmt.Errorf("%w: %w", ErrSessionBroken, s.broken)
	}
	var items []BatchItem
	enc := newCellEncoder(s.syms)
	buf := s.buf[:0]
	applied := 0
	var encodeErr error
	for i := 0; ; i++ {
		bop, ok := next(i)
		if !ok {
			break
		}
		op := bop.Op
		d, err := s.sess.ApplyCtx(bop.Ctx, op)
		for attempt := 0; retry != nil && err != nil && !errors.Is(err, core.ErrRejected); attempt++ {
			if !retry(i, attempt, err) {
				break
			}
			d, err = s.sess.ApplyCtx(bop.Ctx, op)
		}
		if err != nil {
			items = append(items, BatchItem{Decision: d, Err: err})
			if stopOnErr {
				break
			}
			continue
		}
		buf, err = enc.appendOp(buf, s.seq+uint64(applied)+1, op)
		if err != nil {
			// The op is applied in memory but cannot be journaled:
			// memory is ahead of disk with nothing to write. Flush the
			// encodable prefix below, then break the session.
			items = append(items, BatchItem{Decision: d, Err: fmt.Errorf("%w: %w", ErrSessionBroken, err)})
			encodeErr = err
			break
		}
		applied++
		items = append(items, BatchItem{Decision: d})
	}
	s.buf = buf
	if applied > 0 {
		if err := s.j.appendEncoded(buf, applied); err != nil {
			s.broken = err
			return items, fmt.Errorf("%w: %w", ErrSessionBroken, err)
		}
		s.seq += uint64(applied)
		s.sinceSnap += applied
		if s.sinceSnap >= s.opts.every() {
			s.snapErr = s.rotate()
		}
	}
	if encodeErr != nil {
		s.broken = encodeErr
		return items, fmt.Errorf("%w: %w", ErrSessionBroken, encodeErr)
	}
	return items, nil
}

// applyAllChunk bounds how many ops share one group commit in ApplyAll:
// large enough to amortize the fsync, small enough that a failed script
// does not hold a long applied-but-unacknowledged prefix in memory.
const applyAllChunk = 64

// ApplyAll applies a sequence of updates with group commit, stopping at
// the first rejection or error, mirroring core.Session.ApplyAll: it
// returns the number applied (all of them durable) and the stopping
// error. A 100-op script pays ⌈100/64⌉ fsyncs instead of 100.
func (s *Session) ApplyAll(ops []core.UpdateOp) (int, error) {
	return s.ApplyAllCtx(context.Background(), ops)
}

// ApplyAllCtx is ApplyAll bounded by a context, checked per update.
func (s *Session) ApplyAllCtx(ctx context.Context, ops []core.UpdateOp) (int, error) {
	applied := 0
	for start := 0; start < len(ops); start += applyAllChunk {
		end := start + applyAllChunk
		if end > len(ops) {
			end = len(ops)
		}
		items, err := s.applyBatch(batchOps(ctx, ops[start:end]), nil, true)
		for _, it := range items {
			if it.Err == nil {
				applied++
			}
		}
		if err != nil {
			return applied, err
		}
		for _, it := range items {
			if it.Err != nil {
				return applied, it.Err
			}
		}
	}
	return applied, nil
}

// SetIncremental forwards to the wrapped core session, switching the
// delta-driven incremental decide/apply path on or off.
func (s *Session) SetIncremental(on bool) { s.sess.SetIncremental(on) }

// IncrementalEnabled forwards to the wrapped core session.
func (s *Session) IncrementalEnabled() bool { return s.sess.IncrementalEnabled() }
