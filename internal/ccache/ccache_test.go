package ccache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
)

func mustDo(t *testing.T, c *Cache, key string, compute func() ([]byte, error)) ([]byte, Outcome) {
	t.Helper()
	v, o, err := c.Do(context.Background(), key, compute)
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	return v, o
}

func TestDoHitMiss(t *testing.T) {
	c := New(1 << 20)
	var calls int
	compute := func() ([]byte, error) { calls++; return []byte("payload"), nil }

	v, o := mustDo(t, c, "k", compute)
	if string(v) != "payload" || o != Miss {
		t.Fatalf("first Do = %q, %v; want payload, Miss", v, o)
	}
	v, o = mustDo(t, c, "k", compute)
	if string(v) != "payload" || o != Hit {
		t.Fatalf("second Do = %q, %v; want payload, Hit", v, o)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if got, ok := c.Get("k"); !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Shared != 0 || s.Entries != 1 || s.Bytes != 7 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(1 << 20)
	const waiters = 16
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	outcomes := make([]Outcome, waiters)
	vals := make([][]byte, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o, err := c.Do(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				once.Do(func() { close(started) })
				<-release
				return []byte("shared-payload"), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			outcomes[i] = o
			vals[i] = v
		}()
	}
	<-started
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers", n, waiters)
	}
	var miss, shrd, hit int
	for i := range outcomes {
		if string(vals[i]) != "shared-payload" {
			t.Fatalf("waiter %d got %q", i, vals[i])
		}
		switch outcomes[i] {
		case Miss:
			miss++
		case Shared:
			shrd++
		case Hit:
			hit++
		}
	}
	// Exactly one caller computes; the rest either coalesced onto the
	// flight or arrived after publication and hit the cache.
	if miss != 1 || shrd+hit != waiters-1 {
		t.Fatalf("outcomes: %d miss, %d shared, %d hit", miss, shrd, hit)
	}
	s := c.Stats()
	if s.Lookups != waiters || s.Misses != 1 || s.Hits != waiters-1 || s.Shared > s.Hits {
		t.Fatalf("stats %+v", s)
	}
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("hits+misses != lookups: %+v", s)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed compute was cached")
	}
	v, o := mustDo(t, c, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if string(v) != "ok" || o != Miss {
		t.Fatalf("retry after error = %q, %v", v, o)
	}
}

func TestEvictionLRU(t *testing.T) {
	c := New(10)
	fill := func(key, val string) { mustDo(t, c, key, func() ([]byte, error) { return []byte(val), nil }) }
	fill("a", "aaaa") // 4 bytes
	fill("b", "bbbb") // 8 bytes
	// Touch a so b is the LRU tail.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	fill("c", "cccc") // 12 bytes -> evict b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 8 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOversizePayloadUncacheable(t *testing.T) {
	c := New(4)
	v, o := mustDo(t, c, "big", func() ([]byte, error) { return []byte("too large"), nil })
	if string(v) != "too large" || o != Miss {
		t.Fatalf("Do = %q, %v", v, o)
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversize payload was cached")
	}
	if s := c.Stats(); s.Uncacheable != 1 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestBudgetBoundary pins cost accounting at the byte-budget edge: a
// payload exactly at the budget is cacheable and charged exactly once
// (evicting everything else), one byte over is uncacheable, and an
// uncacheable result never occupies bytes that would wedge later
// evictions.
func TestBudgetBoundary(t *testing.T) {
	c := New(8)
	mustDo(t, c, "small", func() ([]byte, error) { return []byte("xx"), nil })
	// Exactly at the budget: cached, evicts "small".
	mustDo(t, c, "exact", func() ([]byte, error) { return []byte("12345678"), nil })
	if _, ok := c.Get("exact"); !ok {
		t.Fatal("payload exactly at the budget was not cached")
	}
	if _, ok := c.Get("small"); ok {
		t.Fatal("small entry should have been evicted by the full-budget entry")
	}
	s := c.Stats()
	if s.Bytes != 8 || s.Entries != 1 || s.Evictions != 1 || s.Uncacheable != 0 {
		t.Fatalf("stats after exact-fit insert: %+v", s)
	}

	// One byte over: uncacheable, charged once, cache state untouched.
	mustDo(t, c, "over", func() ([]byte, error) { return []byte("123456789"), nil })
	s = c.Stats()
	if s.Uncacheable != 1 || s.Bytes != 8 || s.Entries != 1 {
		t.Fatalf("stats after oversize insert: %+v", s)
	}
	// The oversize result must not have wedged eviction: a new fitting
	// entry still displaces the old one normally.
	mustDo(t, c, "next", func() ([]byte, error) { return []byte("abcdefgh"), nil })
	if _, ok := c.Get("next"); !ok {
		t.Fatal("cache wedged: fitting entry not cached after oversize insert")
	}
	if s = c.Stats(); s.Entries != 1 || s.Bytes != 8 {
		t.Fatalf("stats after recovery insert: %+v", s)
	}
}

// TestZeroBudgetZeroBytePayload is the regression for the disabled-cache
// wedge: with a non-positive budget, a zero-byte payload used to slip past
// the oversize check into the LRU, where the byte-driven eviction loop
// could never remove it — the entry count grew without bound and the
// "disabled" cache started serving hits.
func TestZeroBudgetZeroBytePayload(t *testing.T) {
	c := New(0)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("empty-%d", i)
		for pass := 0; pass < 2; pass++ {
			v, o := mustDo(t, c, key, func() ([]byte, error) { return []byte{}, nil })
			if len(v) != 0 || o != Miss {
				t.Fatalf("Do(%s) pass %d = %q, %v; want empty Miss", key, pass, v, o)
			}
		}
	}
	s := c.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("disabled cache retained entries: %+v", s)
	}
	if s.Hits != 0 || s.Misses != 6 || s.Uncacheable != 6 {
		t.Fatalf("disabled cache served hits or miscounted: %+v", s)
	}
}

func TestSharedWaitCancellation(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
		if err != nil {
			t.Errorf("initiator: %v", err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, o, err := c.Do(ctx, "k", func() ([]byte, error) { return nil, errors.New("must not run") })
	if o != Shared || !faults.IsCancellation(err) {
		t.Fatalf("canceled waiter: outcome %v, err %v", o, err)
	}
	close(release)
}

// TestConcurrentMixedKeys hammers the cache with many goroutines over a
// small key space (run under -race) and checks every caller observed the
// key's canonical payload.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(1 << 10)
	const goroutines, rounds, keys = 8, 200, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("key-%d", (g+i)%keys)
				want := "payload-for-" + k
				v, _, err := c.Do(context.Background(), k, func() ([]byte, error) {
					return []byte(want), nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", k, err)
					return
				}
				if string(v) != want {
					t.Errorf("Do(%s) = %q", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Lookups != goroutines*rounds {
		t.Fatalf("lookups = %d, want %d", s.Lookups, goroutines*rounds)
	}
	if s.Hits+s.Misses != s.Lookups || s.Shared > s.Hits {
		t.Fatalf("counter invariant violated: %+v", s)
	}
}

func TestDisabledCacheStillDedupes(t *testing.T) {
	c := New(0)
	v, o := mustDo(t, c, "k", func() ([]byte, error) { return []byte("v"), nil })
	if string(v) != "v" || o != Miss {
		t.Fatalf("Do = %q, %v", v, o)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("zero-budget cache stored a value")
	}
	if _, o := mustDo(t, c, "k", func() ([]byte, error) { return []byte("v"), nil }); o != Miss {
		t.Fatalf("second Do outcome = %v, want Miss (nothing cached)", o)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Shared: "shared", Outcome(9): "Outcome(9)"} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
}

// TestSharedLeaderFailureNotCounted is the regression for the shared-hit
// drift: waiters used to be counted Shared the moment they coalesced, so a
// failed leader left behind shared hits that never materialized. Waiters
// must observe the leader's error, and the counters must record them as
// misses.
func TestSharedLeaderFailureNotCounted(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	const waiters = 8
	release := make(chan struct{})
	started := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return nil, boom
		})
		leaderErr <- err
	}()
	<-started

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	vals := make([][]byte, waiters)
	waiting := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			waiting <- struct{}{}
			v, o, err := c.Do(context.Background(), "k", func() ([]byte, error) {
				t.Error("waiter ran compute during an in-flight call")
				return nil, nil
			})
			if o != Shared {
				t.Errorf("waiter %d outcome = %v, want Shared", i, o)
			}
			errs[i], vals[i] = err, v
		}()
	}
	// All waiters are about to block on the flight; give them a beat to
	// reach the select, then fail the leader.
	for i := 0; i < waiters; i++ {
		<-waiting
	}
	close(release)
	wg.Wait()
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v", err)
	}
	for i := 0; i < waiters; i++ {
		if !errors.Is(errs[i], boom) {
			t.Fatalf("waiter %d err = %v, want leader's error", i, errs[i])
		}
		if vals[i] != nil {
			t.Fatalf("waiter %d got a value %q from a failed flight", i, vals[i])
		}
	}

	s := c.Stats()
	if s.Shared != 0 || s.Hits != 0 {
		t.Fatalf("failed flight produced phantom shared hits: %+v", s)
	}
	// Some waiters may have raced in after the flight resolved and become
	// fresh leaders themselves; every one of them failed, so all lookups
	// are misses either way.
	if s.Misses != s.Lookups || s.Hits+s.Misses != s.Lookups {
		t.Fatalf("counter invariant violated after failed flight: %+v", s)
	}
}

// TestCounterInvariantStress hammers Do with mixed keys, failing computes
// and canceled waits (run under -race) and pins the accounting invariant:
// hits+misses == lookups, shared ≤ hits.
func TestCounterInvariantStress(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		c := New(1 << 10)
		const goroutines, rounds, keys = 12, 150, 7
		var wg sync.WaitGroup
		var want atomic.Int64
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < rounds; i++ {
					k := fmt.Sprintf("key-%d", rng.Intn(keys))
					ctx := context.Background()
					var cancel context.CancelFunc
					if rng.Intn(8) == 0 {
						ctx, cancel = context.WithCancel(ctx)
						cancel() // abandoned waits must not count shared hits
					}
					fail := rng.Intn(4) == 0
					want.Add(1)
					_, _, err := c.Do(ctx, k, func() ([]byte, error) {
						if fail {
							return nil, errors.New("induced failure")
						}
						return []byte("payload-for-" + k), nil
					})
					_ = err // failures and cancellations are the point
					if cancel != nil {
						cancel()
					}
				}
			}()
		}
		wg.Wait()
		s := c.Stats()
		if s.Lookups != want.Load() {
			t.Fatalf("lookups = %d, want %d", s.Lookups, want.Load())
		}
		if s.Hits+s.Misses != s.Lookups {
			t.Fatalf("hits+misses != lookups: %+v", s)
		}
		if s.Shared > s.Hits {
			t.Fatalf("shared hits exceed hits: %+v", s)
		}
	})
}
