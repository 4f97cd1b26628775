// Package resilience is the service layer's fault-handling toolkit:
// deterministic-under-test retry with exponential backoff and jitter,
// classification of the internal/faults taxonomy into retryable versus
// terminal failures, and a circuit breaker that sheds load while a
// dependency is melting down. It exists so that no library code hand-rolls
// a time.Sleep retry loop (the tqeclint ctxsleep analyzer enforces this):
// every backoff here is context-aware and every random choice flows from
// an explicit seed.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
)

// Class is a retry verdict for one failure.
type Class int

// Failure classes, from most to least final.
const (
	// Terminal failures never improve on retry: invalid placements,
	// cancellations, malformed inputs.
	Terminal Class = iota
	// Retryable failures are expected to clear: injected transients.
	Retryable
	// RetryOnce failures get exactly one more attempt: a recovered panic
	// may be a cosmic-ray one-off, but two in a row mean a real bug.
	RetryOnce
)

// String names the class for logs and metrics.
func (c Class) String() string {
	switch c {
	case Terminal:
		return "terminal"
	case Retryable:
		return "retryable"
	case RetryOnce:
		return "retry_once"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify maps the internal/faults taxonomy onto retry classes:
//
//	ErrTransient            → Retryable   (injected/chaos faults clear)
//	ErrPanic                → RetryOnce   (one more shot, then it's a bug)
//	ErrCanceled / context   → Terminal    (the caller gave up)
//	ErrPlacementInvalid     → Terminal    (deterministic after escalation)
//	ErrUnroutable           → Terminal    (every strategy already failed)
//	ErrInvariant            → Terminal    (internal bug; retrying hides it)
//	anything else           → Terminal    (unknown failures default safe)
func Classify(err error) Class {
	switch {
	case err == nil:
		return Terminal
	case faults.IsCancellation(err):
		return Terminal
	case errors.Is(err, faults.ErrTransient):
		return Retryable
	case errors.Is(err, faults.ErrPanic):
		return RetryOnce
	case errors.Is(err, faults.ErrPlacementInvalid),
		errors.Is(err, faults.ErrUnroutable),
		errors.Is(err, faults.ErrInvariant):
		return Terminal
	}
	return Terminal
}

// Policy configures Do. The zero value retries up to 3 attempts with a
// 10ms..1s exponential backoff and deterministic jitter from seed 0.
type Policy struct {
	// MaxAttempts bounds the total number of fn invocations (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 1s).
	MaxDelay time.Duration
	// JitterSeed seeds the deterministic jitter sequence. Equal seeds
	// yield equal delay schedules, which is what makes retry behaviour
	// reproducible in tests.
	JitterSeed uint64
	// Sleep overrides the backoff sleep (nil = a context-aware timer).
	// Tests inject a recorder to assert the schedule without waiting.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry observes each scheduled retry (metrics hooks).
	OnRetry func(attempt int, err error, delay time.Duration)
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// sleepCtx waits d or until ctx dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return faults.Canceled(ctx)
	}
}

// splitmix64 advances the deterministic jitter state; it is the same
// generator the placement stage uses for per-chain seed derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4b33a2af89d25
	return z ^ (z >> 31)
}

// backoff returns the attempt'th delay: exponential growth capped at
// MaxDelay, with deterministic equal-jitter (half fixed, half seeded) so
// concurrent retries with different seeds decorrelate.
func (p Policy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	r := splitmix64(p.JitterSeed + uint64(attempt))
	return half + time.Duration(r%uint64(half+1))
}

// Do runs fn with retry: attempt 0 immediately, each retry after a
// deterministic backoff, stopping on success, a Terminal classification, a
// RetryOnce error past its single retry, exhaustion of MaxAttempts, or a
// dead context. Every attempt receives ctx. The returned error is the last
// attempt's, so callers map it exactly as they would an unretried failure.
func Do(ctx context.Context, p Policy, fn func(ctx context.Context, attempt int) error) error {
	p = p.withDefaults()
	var last error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if err := faults.Canceled(ctx); err != nil {
			if last != nil {
				return last
			}
			return err
		}
		err := fn(ctx, attempt)
		if err == nil {
			return nil
		}
		last = err
		switch Classify(err) {
		case Terminal:
			return last
		case RetryOnce:
			if attempt >= 1 {
				return last
			}
		}
		if attempt == p.MaxAttempts-1 {
			return last
		}
		delay := p.backoff(attempt)
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, delay)
		}
		if serr := p.Sleep(ctx, delay); serr != nil {
			return last
		}
	}
	return last
}
