// Package resilience holds the service layer's circuit breaker, which
// sheds load while compiles keep failing systemically. Compilation is a
// pure function of the circuit and the seed, so a failed compile is never
// retried: it would fail the same way again.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the breaker is
// shedding load; callers should reject fast with a Retry-After hint.
var ErrBreakerOpen = errors.New("circuit breaker open")

// BreakerState is the breaker's current mode.
type BreakerState int32

// Breaker states, in the order the machine cycles through them.
const (
	// BreakerClosed admits everything (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects everything until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe to test recovery.
	BreakerHalfOpen
)

// String names the state for the metrics endpoint.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerSettings configures a Breaker. Zero values mean defaults.
type BreakerSettings struct {
	// Threshold is how many consecutive failures trip the breaker open
	// (default 8).
	Threshold int
	// Cooldown is how long the breaker stays open before probing
	// (default 10s).
	Cooldown time.Duration
	// Now overrides the clock for deterministic tests (default
	// time.Now).
	Now func() time.Time
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures in
// a row open it, Allow rejects while open, and after Cooldown a single
// probe is admitted — its success closes the breaker, its failure re-opens
// it for another cooldown. Only failures the caller judges systemic should
// be recorded: client errors and cancellations say nothing about service
// health. All methods are safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	st       BreakerSettings
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
	trips    int64
}

// NewBreaker builds a breaker from the settings.
func NewBreaker(st BreakerSettings) *Breaker {
	if st.Threshold <= 0 {
		st.Threshold = 8
	}
	if st.Cooldown <= 0 {
		st.Cooldown = 10 * time.Second
	}
	if st.Now == nil {
		st.Now = time.Now
	}
	return &Breaker{st: st}
}

// Allow reports whether a request may proceed. While open it returns
// ErrBreakerOpen until the cooldown elapses, then transitions to half-open
// and admits exactly one probe; further calls keep rejecting until that
// probe reports through Success or Failure.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.st.Now().Sub(b.openedAt) < b.st.Cooldown {
			return fmt.Errorf("%w: cooling down", ErrBreakerOpen)
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return fmt.Errorf("%w: probe in flight", ErrBreakerOpen)
		}
		b.probing = true
		return nil
	}
}

// Success records a healthy completion: it resets the failure streak and
// closes a half-open breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	b.state = BreakerClosed
}

// Abandon releases an admitted probe that never reached the protected
// operation (the request was rejected downstream — queue full, journal
// append failed — before anything health-relevant ran). A half-open
// breaker returns to accepting a new probe; in other states it is a no-op.
// Without this, a probe lost between Allow and the operation would wedge
// the half-open state shut forever.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Failure records a systemic failure: it extends the streak, trips the
// breaker at the threshold, and re-opens a half-open breaker immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.st.Threshold {
		if b.state != BreakerOpen {
			b.trips++
		}
		b.state = BreakerOpen
		b.openedAt = b.st.Now()
		b.probing = false
		b.fails = 0
	}
}

// State returns the current mode.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips counts closed→open transitions since construction.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// RetryAfter estimates how long a rejected caller should wait before
// retrying: the remaining cooldown while open, a nominal beat while
// half-open, zero while closed.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if rem := b.st.Cooldown - b.st.Now().Sub(b.openedAt); rem > 0 {
			return rem
		}
		return time.Second
	case BreakerHalfOpen:
		return time.Second
	}
	return 0
}
