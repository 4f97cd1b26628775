// Package faults defines the sentinel errors of the pipeline's failure
// taxonomy and small helpers shared by every stage. It is a leaf package so
// that both the internal stage packages (place, route, bridge, …) and the
// public tqec API can wrap the same sentinels without an import cycle;
// tqec re-exports them (tqec.ErrCanceled = faults.ErrCanceled, …) so
// callers only ever need errors.Is against the tqec names.
package faults

import (
	"context"
	"errors"
	"fmt"
)

var (
	// ErrCanceled marks work aborted by context cancellation or deadline.
	ErrCanceled = errors.New("canceled")
	// ErrUnroutable marks nets that exhausted every routing strategy,
	// including the straight-line fallback.
	ErrUnroutable = errors.New("unroutable")
	// ErrPlacementInvalid marks a placement that failed structural
	// validation (overlap or time-ordering).
	ErrPlacementInvalid = errors.New("placement invalid")
	// ErrDegraded marks a result produced under graceful degradation
	// (e.g. fallback-routed nets): usable, but not at full quality.
	ErrDegraded = errors.New("degraded result")
	// ErrPanic marks a recovered panic converted into an error.
	ErrPanic = errors.New("internal panic")
	// ErrInvariant marks a violated internal invariant that previously
	// would have panicked.
	ErrInvariant = errors.New("internal invariant violated")
	// ErrEmpty marks a workload that reduced to nothing to lay out — a
	// circuit (or partitioned sub-circuit) whose gates all canceled
	// during rewriting, leaving no modules to place. The partitioned
	// compiler treats a part failing with it as geometry-free rather
	// than as a compilation failure, unless every part fails with it and
	// no seam joins them.
	ErrEmpty = errors.New("nothing to lay out")
)

// Canceled converts a done context into an ErrCanceled-wrapped error; it
// returns nil while ctx is live. Stages call it at loop checkpoints so a
// deadline aborts within a bounded number of iterations.
func Canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// IsCancellation reports whether err stems from context cancellation,
// whichever layer wrapped it.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
