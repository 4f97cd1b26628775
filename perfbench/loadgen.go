package main

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// newClient is a generator's HTTP client: at most conns keep-alive
// connections to the daemon, however many requests are outstanding.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// loadStats is what an open-loop run measured.
type loadStats struct {
	// lat is each request's latency, timed from when it was due, so a
	// stall also charges the requests queued behind it.
	lat []time.Duration
	// lateMax is how far behind schedule the generator sent a request.
	lateMax time.Duration
	// due is each request's due time.
	due []time.Time
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i·interval, each on its own goroutine so a slow response never
// delays a later send. send performs request i and must return once ctx
// ends; ctx ends grace after the last request was due, so a request still
// outstanding then fails.
func openLoop(ctx context.Context, n int, interval, grace time.Duration, send func(ctx context.Context, i int)) loadStats {
	st := loadStats{lat: make([]time.Duration, n), due: make([]time.Time, n)}
	start := time.Now()
	last := start.Add(time.Duration(n-1) * interval)
	rctx, cancel := context.WithDeadline(ctx, last.Add(grace))
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		st.due[i] = due
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-rctx.Done():
				t.Stop()
			}
		}
		st.lateMax = max(st.lateMax, time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(rctx, i)
			st.lat[i] = time.Since(due)
		}(i, due)
	}
	wg.Wait()
	return st
}
