package server

import (
	"encoding/json"
	"testing"
	"time"
)

// TestBreakerOpensAndSheds trips the breaker with a streak of systemic
// failures, then observes 503 breaker_open with a Retry-After hint, no
// compile run.
func TestBreakerOpensAndSheds(t *testing.T) {
	s := startServer(t, testConfig())
	for i := 0; i < breakerThreshold; i++ {
		s.breaker.Failure()
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(get(s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Resilience.BreakerState != "open" || snap.Resilience.BreakerTrips != 1 {
		t.Fatalf("breaker %+v, want open after 1 trip", snap.Resilience)
	}
	compilesBefore := snap.Server.Compiles
	w := post(s, "/v1/compile", compileBody(t, realSrc, "fig4", CompileOptions{Seed: 999, Iterations: 2000}))
	if w.Code != 503 {
		t.Fatalf("open breaker admitted a compile: %d", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("breaker rejection missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Sentinel != "breaker_open" {
		t.Fatalf("breaker error body %s", w.Body)
	}
	if err := json.Unmarshal(get(s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Server.Compiles != compilesBefore {
		t.Fatal("shed request still reached the compiler")
	}
	// A cached key bypasses the breaker: hits consume no worker. (Nothing
	// is cached here, so assert the uncached path stays shut instead.)
	if w := post(s, "/v1/jobs", compileBody(t, realSrc2, "other", CompileOptions{Seed: 1})); w.Code != 503 {
		t.Fatalf("open breaker admitted an async job: %d", w.Code)
	}
}

// TestAdmissionControl drives the admission estimate directly: a loaded
// queue plus a latency estimate far beyond the request deadline must
// reject on arrival with 429 and Retry-After.
func TestAdmissionControl(t *testing.T) {
	s, err := New(testConfig()) // pool never started: queued tasks stay put
	if err != nil {
		t.Fatal(err)
	}
	// Pretend compiles take 10s and two are already waiting.
	s.compileEWMA.Store(int64(10 * time.Second))
	for i := 0; i < 2; i++ {
		if err := s.pool.enqueue(&task{}); err != nil {
			t.Fatal(err)
		}
	}
	body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 2, Iterations: 2000, TimeoutMS: 50})
	w := post(s, "/v1/jobs", body)
	if w.Code != 429 {
		t.Fatalf("doomed request admitted: %d %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("admission rejection missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Sentinel != "admission" {
		t.Fatalf("admission error body %s", w.Body)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(get(s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Resilience.AdmissionRejected != 1 {
		t.Fatalf("admission_rejected = %d, want 1", snap.Resilience.AdmissionRejected)
	}
}
