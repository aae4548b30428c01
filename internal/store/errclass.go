package store

import (
	"context"
	"errors"

	"github.com/constcomp/constcomp/internal/core"
)

// Error taxonomy for the serve ↔ store boundary. Every error that
// crosses it is either *transient* — the operation (or the session) can
// be retried and may succeed: an injected or real I/O fault, a torn
// write detected before acknowledgement, a budget trip, a cancelled
// context — or *permanent* — retrying is pointless or unsound: an
// untranslatable update, a complement violation, acknowledged-data
// loss. The serving pipeline's self-healing layer keys every recovery
// decision (resurrect the session, re-journal an op, or reject the op
// and move on) off this classification. An error it cannot name
// (ClassUnknown) is permanent for one op: the op is rejected, not
// re-journalled. It is not permanent for the session: heal keeps
// resurrecting after a batch or resurrection error it cannot name, up
// to its retry bound, since a raw I/O error from Recover carries no
// sentinel.
//
// The errclass constvet analyzer enforces the taxonomy's completeness:
// every error sentinel declared in this package (and internal/serve)
// must appear in the package's classOf table, and error wraps in these
// packages must preserve the chain with %w — a %v wrap would strip the
// classification exactly where it matters.

// Class is the retry classification of a boundary error.
type Class uint8

const (
	// ClassUnknown marks an error the taxonomy cannot name: permanent
	// for an op, retried for the session (see the taxonomy above).
	ClassUnknown Class = iota
	// ClassTransient errors may succeed on retry (after the session
	// heals or the queue drains).
	ClassTransient
	// ClassPermanent errors will fail identically on retry; reject the
	// op and keep the rest of the batch.
	ClassPermanent
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	}
	return "unknown"
}

// Classify resolves the retry class of an error crossing the serve ↔
// store boundary through the sentinel taxonomy in classOf.
// Unrecognized errors are ClassUnknown: permanent for an op, retried
// for the session.
func Classify(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	return classOf(err)
}

// classOf is the sentinel taxonomy table for this package's boundary
// errors (the errclass analyzer checks every sentinel declared here is
// covered). Permanent causes are tested before ErrSessionBroken so a
// broken-session wrap around a permanent cause keeps its permanence;
// a broken session with a transient (or unknown I/O) cause is itself
// transient — quarantine, recover, and resume is expected to succeed.
func classOf(err error) Class {
	switch {
	case errors.Is(err, ErrDataLoss):
		return ClassPermanent
	case errors.Is(err, ErrNoSnapshot):
		return ClassPermanent
	case errors.Is(err, ErrCorrupt):
		return ClassPermanent
	case errors.Is(err, ErrInvariant):
		return ClassPermanent
	case errors.Is(err, core.ErrRejected):
		return ClassPermanent
	case errors.Is(err, ErrInjected):
		return ClassTransient
	case errors.Is(err, ErrTorn):
		return ClassTransient
	case errors.Is(err, core.ErrBudgetExceeded):
		return ClassTransient
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ClassTransient
	case errors.Is(err, ErrSessionBroken):
		return ClassTransient
	}
	return ClassUnknown
}
