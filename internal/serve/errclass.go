package serve

import (
	"errors"

	"github.com/constcomp/constcomp/internal/store"
)

// ErrShed is returned when bounded admission rejects an op: the submit
// queue was full (Options.ShedOnFull). Shedding is transient by
// definition — the op never reached the store, so resubmitting when the
// queue drains is always sound.
var ErrShed = errors.New("serve: submission shed: submit queue full")

// classOf is this package's sentinel taxonomy table; the errclass
// analyzer (internal/analysis) requires every error sentinel declared
// in the package to be covered here. ErrClosed is permanent — a closed
// pipeline never reopens; ErrShed is transient — resubmission after
// drain is expected to succeed.
func classOf(err error) store.Class {
	switch {
	case errors.Is(err, ErrClosed):
		return store.ClassPermanent
	case errors.Is(err, ErrShed):
		return store.ClassTransient
	}
	return store.ClassUnknown
}

// classify resolves a boundary error against this package's table
// first, then the store taxonomy (which also honors explicit
// store.Transient/store.Permanent tags).
func classify(err error) store.Class {
	if c := classOf(err); c != store.ClassUnknown {
		return c
	}
	return store.Classify(err)
}

// Classify reports the retry class of any error returned by the
// pipeline, so clients can route without matching sentinels themselves:
// transient → back off and resubmit; permanent (or unknown) → surface
// to the caller.
func Classify(err error) store.Class { return classify(err) }
