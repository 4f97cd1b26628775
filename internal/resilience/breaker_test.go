package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerSettings{Threshold: 3, Cooldown: 10 * time.Second,
		Now: func() time.Time { return now }})
	if b.State() != BreakerClosed || b.Allow() != nil {
		t.Fatal("new breaker must be closed")
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("threshold reached but state=%v trips=%d", b.State(), b.Trips())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a request: %v", err)
	}
	if ra := b.RetryAfter(); ra != 10*time.Second {
		t.Fatalf("retry-after %v, want full cooldown", ra)
	}

	// Cooldown elapses: exactly one probe gets through.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("post-cooldown probe rejected: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent probe admitted")
	}

	// Probe fails: straight back to open, new cooldown.
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%v trips=%d", b.State(), b.Trips())
	}

	// Next probe succeeds: closed again, streak reset.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Success()
	if b.State() != BreakerClosed || b.Allow() != nil {
		t.Fatal("successful probe must close the breaker")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("failure streak not reset by success")
	}
}

// Recording successes between failures keeps the breaker closed: the
// threshold is consecutive, not cumulative.
func TestBreakerConsecutiveSemantics(t *testing.T) {
	b := NewBreaker(BreakerSettings{Threshold: 2, Cooldown: time.Second})
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Success()
	}
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Fatalf("interleaved failures tripped the breaker: %v", b.State())
	}
}
