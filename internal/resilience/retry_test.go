package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
)

// recordSleep replaces the backoff timer with a schedule recorder.
func recordSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{faults.Transient("chaos", nil), Retryable},
		{fmt.Errorf("stage: %w", faults.ErrDegraded), Terminal},
		{faults.ErrPanic, RetryOnce},
		{faults.ErrCanceled, Terminal},
		{context.DeadlineExceeded, Terminal},
		{faults.ErrPlacementInvalid, Terminal},
		{faults.ErrUnroutable, Terminal},
		{faults.ErrInvariant, Terminal},
		{errors.New("mystery"), Terminal},
		{nil, Terminal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v want %v", c.err, got, c.want)
		}
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	var delays []time.Duration
	attempts := 0
	err := Do(context.Background(), Policy{MaxAttempts: 5, Sleep: recordSleep(&delays)},
		func(_ context.Context, attempt int) error {
			attempts++
			if attempt < 2 {
				return faults.Transient("flaky", nil)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("retry should have succeeded: %v", err)
	}
	if attempts != 3 || len(delays) != 2 {
		t.Fatalf("attempts=%d delays=%v, want 3 attempts and 2 sleeps", attempts, delays)
	}
}

func TestRetryTerminalStopsImmediately(t *testing.T) {
	attempts := 0
	err := Do(context.Background(), Policy{MaxAttempts: 5},
		func(_ context.Context, _ int) error {
			attempts++
			return faults.ErrPlacementInvalid
		})
	if !errors.Is(err, faults.ErrPlacementInvalid) || attempts != 1 {
		t.Fatalf("terminal error retried: attempts=%d err=%v", attempts, err)
	}
}

func TestRetryPanicOnlyOnce(t *testing.T) {
	attempts := 0
	var delays []time.Duration
	err := Do(context.Background(), Policy{MaxAttempts: 5, Sleep: recordSleep(&delays)},
		func(_ context.Context, _ int) error {
			attempts++
			return fmt.Errorf("stage: %w", faults.ErrPanic)
		})
	if !errors.Is(err, faults.ErrPanic) {
		t.Fatalf("want panic error, got %v", err)
	}
	if attempts != 2 {
		t.Fatalf("panic must retry exactly once, got %d attempts", attempts)
	}
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	var delays []time.Duration
	err := Do(context.Background(), Policy{MaxAttempts: 3, Sleep: recordSleep(&delays)},
		func(_ context.Context, attempt int) error {
			return faults.Transient(fmt.Sprintf("try %d", attempt), nil)
		})
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("want last transient error, got %v", err)
	}
	if len(delays) != 2 {
		t.Fatalf("3 attempts should sleep twice, slept %v", delays)
	}
}

// The backoff schedule is a pure function of the policy: same seed, same
// delays; different seeds decorrelate; delays grow and respect the cap.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, JitterSeed: 42}.withDefaults()
	var first []time.Duration
	for attempt := 0; attempt < 6; attempt++ {
		d := p.backoff(attempt)
		first = append(first, d)
		base := 10 * time.Millisecond << attempt
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if d < base/2 || d > base {
			t.Fatalf("attempt %d delay %v outside [%v,%v]", attempt, d, base/2, base)
		}
	}
	for attempt := 0; attempt < 6; attempt++ {
		if d := p.backoff(attempt); d != first[attempt] {
			t.Fatalf("backoff not deterministic at attempt %d: %v vs %v", attempt, d, first[attempt])
		}
	}
	p2 := p
	p2.JitterSeed = 43
	same := 0
	for attempt := 0; attempt < 6; attempt++ {
		if p2.backoff(attempt) == first[attempt] {
			same++
		}
	}
	if same == 6 {
		t.Fatal("different seeds produced an identical schedule")
	}
}

func TestRetryStopsOnDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	err := Do(ctx, Policy{MaxAttempts: 10, Sleep: func(context.Context, time.Duration) error { return nil }},
		func(_ context.Context, _ int) error {
			attempts++
			cancel()
			return faults.Transient("then the world ended", nil)
		})
	if err == nil || attempts != 1 {
		t.Fatalf("dead context must stop the loop: attempts=%d err=%v", attempts, err)
	}
}

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
