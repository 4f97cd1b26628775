package server

// This file is the server's resilience glue: journal appends and crash
// recovery, breaker accounting around the compile path, the circuit-breaker
// gate, and deadline-aware admission control. The mechanisms themselves
// live in internal/journal and internal/resilience; everything here is
// policy — which events are durable, which failures count as systemic,
// and when a request is doomed enough to reject on arrival.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ccache"
	"repro/internal/faults"
	"repro/internal/journal"
)

// gate runs the pre-queue rejection checks for a request that will need a
// worker: admission control first (it consumes nothing), then the circuit
// breaker (whose half-open probe slot the caller must resolve — by running
// the compile or by breaker.Abandon on a pre-compute rejection).
func (s *Server) gate(timeout time.Duration) *apiError {
	if ae := s.admit(timeout); ae != nil {
		return ae
	}
	if err := s.breaker.Allow(); err != nil {
		ae := compileError(err)
		ae.RetryAfter = s.breaker.RetryAfter()
		return ae
	}
	return nil
}

// admit is the deadline-aware admission controller: it estimates how long
// the queue takes to drain — pending work over the worker count, in waves
// of the exponentially weighted mean compile latency — and rejects a
// request on arrival when that estimate already exceeds its deadline.
// Queuing such a request wastes a worker on an answer nobody is waiting
// for; rejecting it immediately with Retry-After lets the client back off
// or route elsewhere. With no latency estimate yet (a cold server) or an
// idle worker available, everything is admitted.
func (s *Server) admit(timeout time.Duration) *apiError {
	ew := s.compileEWMA.Load()
	if ew <= 0 {
		return nil
	}
	depth, _ := s.pool.depth()
	busy := s.pool.busy.Value()
	if depth == 0 && busy < int64(s.cfg.Workers) {
		return nil
	}
	waves := (int64(depth)+busy)/int64(s.cfg.Workers) + 1
	est := time.Duration(waves * ew)
	if est <= timeout {
		return nil
	}
	s.admissionRej.Inc()
	return &apiError{Status: http.StatusTooManyRequests, RetryAfter: est - timeout,
		Body: ErrorBody{Sentinel: "admission", Message: fmt.Sprintf(
			"queue drain estimate %v exceeds the request deadline %v", est, timeout)}}
}

// observeCompileEWMA folds one successful compile's latency into the
// admission controller's estimate (α = 1/4).
func (s *Server) observeCompileEWMA(d time.Duration) {
	obs := int64(d)
	for {
		old := s.compileEWMA.Load()
		next := obs
		if old > 0 {
			next = old + (obs-old)/4
		}
		if s.compileEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// compile is the path every cache miss funnels through: one execute call
// plus breaker accounting. Compilation is a pure function of the circuit
// and the options, so a failed compile would fail the same way again and
// is never retried.
func (s *Server) compile(ctx context.Context, ct *compileTask) ([]byte, error) {
	out, err := s.execute(ctx, ct)
	// Breaker accounting: only systemic failures say the service itself is
	// sick. A clean result, a client-caused failure (bad deadline), or an
	// unsatisfiable circuit all mean the machinery works.
	if err != nil && systemicFailure(err) {
		s.breaker.Failure()
	} else {
		s.breaker.Success()
	}
	return out, err
}

// systemicFailure reports whether err indicts the service rather than the
// request: recovered panics and invariant violations.
func systemicFailure(err error) bool {
	return errors.Is(err, faults.ErrPanic) || errors.Is(err, faults.ErrInvariant)
}

// outcomeFromString parses a journaled cache-outcome name back into its
// enum; unknown strings degrade to Miss.
func outcomeFromString(s string) ccache.Outcome {
	switch s {
	case "hit":
		return ccache.Hit
	case "shared":
		return ccache.Shared
	}
	return ccache.Miss
}

// wireError is the journaled form of an apiError: status plus structured
// body, so a recovered failed job serves the same error it died with.
type wireError struct {
	// Status is the HTTP status of the failure.
	Status int `json:"status"`
	// Body is the structured error payload.
	Body ErrorBody `json:"body"`
}

// encodeWireError renders an apiError for a failed journal event.
func encodeWireError(ae *apiError) []byte {
	b, err := json.Marshal(wireError{Status: ae.Status, Body: ae.Body})
	if err != nil {
		// ErrorBody marshals by construction; guard anyway.
		return []byte(`{"status":500,"body":{"message":"unencodable error"}}`)
	}
	return b
}

// decodeWireError parses a journaled failure back into an apiError,
// degrading to a generic 500 when the bytes do not parse.
func decodeWireError(b []byte) *apiError {
	var we wireError
	if err := json.Unmarshal(b, &we); err != nil || we.Status < 400 || we.Status > 599 {
		return &apiError{Status: http.StatusInternalServerError,
			Body: ErrorBody{Message: "job failed before the last shutdown (journaled error unreadable)"}}
	}
	return &apiError{Status: we.Status, Body: we.Body}
}

// journalAccepted durably records a job acceptance — request bytes included
// — before the server acknowledges it. On append failure the job is failed
// in memory and the request rejected: a 202 the journal cannot back would
// be a durability promise the server cannot keep.
func (s *Server) journalAccepted(j *job, raw []byte) *apiError {
	if s.cfg.Journal == nil {
		return nil
	}
	err := s.cfg.Journal.Append(journal.Event{Kind: journal.KindAccepted, JobID: j.id, Key: j.key, Request: raw})
	if err == nil {
		return nil
	}
	s.journalErrs.Inc()
	ae := &apiError{Status: http.StatusInternalServerError,
		Body: ErrorBody{Sentinel: "journal", Message: fmt.Sprintf("could not journal job acceptance: %v", err)}}
	j.finish(nil, ccache.Miss, ae)
	return ae
}

// journalAppend best-effort appends a post-acceptance event. Failures are
// counted, not fatal: the in-memory job still completes, and recovery
// degrades to re-running the job (safe, deterministic) rather than losing
// it.
func (s *Server) journalAppend(ev journal.Event) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(ev); err != nil {
		s.journalErrs.Inc()
	}
}

// journalFinish records a job's terminal event: done with the canonical
// result bytes, or failed with the encoded error.
func (s *Server) journalFinish(j *job, body []byte, outcome ccache.Outcome, ae *apiError) {
	if s.cfg.Journal == nil {
		return
	}
	if ae != nil {
		s.journalAppend(journal.Event{Kind: journal.KindFailed, JobID: j.id, Key: j.key, Error: encodeWireError(ae)})
		return
	}
	s.journalAppend(journal.Event{Kind: journal.KindDone, JobID: j.id, Key: j.key, Result: body, Outcome: outcome.String()})
}

// recoverFromJournal replays the journal's recovered job states into a
// fresh server: done jobs return to the registry with their results pushed
// back into the cache (byte-identical serving across the crash), failed
// jobs return with their journaled errors, and interrupted jobs — accepted
// or running when the process died — are re-enqueued under their original
// IDs so pollers never observe a vanished job. Runs before Start, so the
// re-enqueued backlog is first in line when the workers come up.
func (s *Server) recoverFromJournal() {
	for _, st := range s.cfg.Journal.Recovered() {
		switch st.Status {
		case journal.StatusDone:
			if st.Key != "" && len(st.Result) > 0 {
				s.cache.Put(st.Key, st.Result)
			}
			s.jobs.restore(st.ID, st.Key, JobDone, outcomeFromString(st.Outcome), st.Result, nil)
			s.recFinished++
		case journal.StatusFailed:
			s.jobs.restore(st.ID, st.Key, JobFailed, ccache.Miss, nil, decodeWireError(st.Error))
			s.recFinished++
		default:
			ct, aerr := parseCompileRequest(bytes.NewReader(st.Request), s.cfg.limits())
			if aerr != nil {
				// The journaled request bytes no longer parse (corruption
				// caught by the CRC upstream, or a config change): fail
				// the job visibly rather than dropping it silently.
				j := s.jobs.restore(st.ID, st.Key, JobQueued, ccache.Miss, nil, nil)
				j.finish(nil, ccache.Miss, aerr)
				s.journalFinish(j, nil, ccache.Miss, aerr)
				s.recInterrupt++
				continue
			}
			j := s.jobs.restore(st.ID, ct.key, JobQueued, ccache.Miss, nil, nil)
			// enqueueJob journals the failure itself when the queue is
			// already full, so the rejection needs no extra handling here.
			if ae := s.enqueueJob(j, ct); ae != nil {
				s.errorsTotal.Inc()
			}
			s.recInterrupt++
		}
	}
}
