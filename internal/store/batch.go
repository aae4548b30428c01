package store

import (
	"context"
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

// BatchOp is one member of a group commit: the op and the context that
// bounds its decide. Each op carries its own context, so one member's
// deadline or cancellation never bounds another's.
type BatchOp struct {
	Ctx context.Context
	Op  core.UpdateOp
}

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

// ApplyOpsCtx applies the members pulled from next, until it closes,
// as one group commit. Every member is attempted independently under
// its own context: a rejection or a per-op error (its context's
// deadline or cancellation) is recorded in its BatchItem and does not
// stop the batch — the semantics of concurrent submitters whose ops
// happen to share an fsync. Applied ops are journaled together with a
// single write and fsync; they are durable when the call returns, even
// when some items carry errors.
// items[i] is the outcome of the i-th member. The returned error is
// non-nil only when the session is (or becomes) broken — then items
// reports how far the batch got, and applied ops' durability is
// indeterminate (see ErrSessionBroken).
func (s *Session) ApplyOpsCtx(next BatchSource) ([]BatchItem, error) {
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
		if err != nil {
			items = append(items, BatchItem{Decision: d, Err: err})
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

// SetIncremental forwards to the wrapped core session, switching the
// delta-driven incremental decide/apply path on or off (the full path is
// a reference for tests and benchmarks; see core.Session.SetIncremental).
func (s *Session) SetIncremental(on bool) { s.sess.SetIncremental(on) }

// IncrementalEnabled forwards to the wrapped core session.
func (s *Session) IncrementalEnabled() bool { return s.sess.IncrementalEnabled() }
