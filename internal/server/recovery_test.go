package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/qc"
	"repro/tqec"
)

// journalOpts keeps test journals small and fast (no fsync).
func journalOpts() journal.Options {
	return journal.Options{SegmentBytes: 1 << 20, NoSync: true}
}

// openJournal opens (or reopens) the journal under dir.
func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, journalOpts())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// directBytes computes the canonical payload for an inline circuit the way
// the service must serve it, for byte-identity assertions.
func directBytes(t *testing.T, src, name string, o CompileOptions) []byte {
	t.Helper()
	c, err := qc.ParseReal(name, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	opts := requestOptions(o)
	res, err := tqec.CompileContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := tqec.CacheKey(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(key, res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pollDone polls a job until it reaches a terminal state and returns the
// final view.
func pollDone(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := get(s, "/v1/jobs/"+id)
		if w.Code != 200 {
			t.Fatalf("poll %s: %d %s", id, w.Code, w.Body)
		}
		var v JobView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobDone || v.Status == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalKillAndRestartRecovery is the end-to-end crash drill: a job
// completes and is journaled, the process "dies" with more jobs accepted
// but never run, and the next process — sharing only the journal directory
// — serves the finished job byte-identically, re-enqueues the interrupted
// ones under their original IDs, and completes them. No job lost, none
// double-completed, every payload byte-identical to a direct compile.
func TestJournalKillAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	fastBody := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 21, Iterations: 2000})
	direct := directBytes(t, realSrc, "fig4", CompileOptions{Seed: 21, Iterations: 2000})

	// Process 1: complete one job, then die.
	j1 := openJournal(t, dir)
	cfg := testConfig()
	cfg.Journal = j1
	s1 := startServer(t, cfg)
	w := post(s1, "/v1/jobs", fastBody)
	if w.Code != 202 {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var doneJob JobView
	if err := json.Unmarshal(w.Body.Bytes(), &doneJob); err != nil {
		t.Fatal(err)
	}
	final := pollDone(t, s1, doneJob.ID)
	if final.Status != JobDone || !bytes.Equal(final.Result, direct) {
		t.Fatalf("process-1 job: %s, byte-identical=%v", final.Status, bytes.Equal(final.Result, direct))
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2: accepts three more jobs but its workers never run (the
	// crash window between acknowledgement and execution).
	j2 := openJournal(t, dir)
	cfg2 := testConfig()
	cfg2.Journal = j2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var interruptedIDs []string
	for i := 0; i < 3; i++ {
		body := compileBody(t, realSrc2, "other", CompileOptions{Seed: int64(100 + i), Iterations: 2000})
		w := post(s2, "/v1/jobs", body)
		if w.Code != 202 {
			t.Fatalf("process-2 submit %d: %d %s", i, w.Code, w.Body)
		}
		var v JobView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		interruptedIDs = append(interruptedIDs, v.ID)
	}
	// The finished job from process 1 survived into process 2 already.
	if v := pollDone(t, s2, doneJob.ID); v.Status != JobDone || !bytes.Equal(v.Result, direct) {
		t.Fatalf("process-2 lost the finished job: %+v", v)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 3: full recovery. The interrupted jobs re-enqueue under
	// their original IDs and run to completion.
	j3 := openJournal(t, dir)
	cfg3 := testConfig()
	cfg3.Journal = j3
	s3 := startServer(t, cfg3)
	for i, id := range interruptedIDs {
		v := pollDone(t, s3, id)
		if v.Status != JobDone {
			t.Fatalf("recovered job %s: %s (%+v)", id, v.Status, v.Error)
		}
		want := directBytes(t, realSrc2, "other", CompileOptions{Seed: int64(100 + i), Iterations: 2000})
		if !bytes.Equal(v.Result, want) {
			t.Fatalf("recovered job %s result differs from direct compile", id)
		}
		// A second poll must return the same terminal state and bytes:
		// completed exactly once.
		again := pollDone(t, s3, id)
		if again.Status != JobDone || !bytes.Equal(again.Result, v.Result) {
			t.Fatalf("job %s changed after completion", id)
		}
	}
	// The cache was re-populated from the journal: the sync endpoint
	// serves the process-1 payload as a hit, byte-identically.
	w = post(s3, "/v1/compile", fastBody)
	if w.Code != 200 || w.Header().Get("X-Tqecd-Cache") != "hit" {
		t.Fatalf("post-recovery compile: %d cache=%q", w.Code, w.Header().Get("X-Tqecd-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), direct) {
		t.Fatal("post-recovery cached payload differs from direct compile")
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(get(s3, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Journal == nil || snap.Journal.RecoveredInterrupted != 3 || snap.Journal.RecoveredFinished < 1 {
		t.Fatalf("journal metrics %+v", snap.Journal)
	}
}

// TestJournalHardStopRecoversRunningJob kills the worker pool mid-compile:
// the in-flight job must not be journaled as failed — the next process
// re-runs it to completion.
func TestJournalHardStopRecoversRunningJob(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Journal = j1
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s1.Start(ctx)
	// A compile big enough to still be running when the plug is pulled.
	body := compileBody(t, realSrc, "slow", CompileOptions{Seed: 9, Iterations: 400000})
	w := post(s1, "/v1/jobs", body)
	if w.Code != 202 {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var v JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, then hard-stop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobView
		if err := json.Unmarshal(get(s1, "/v1/jobs/"+v.ID).Body.Bytes(), &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Status != JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	// Let the canceled compile unwind before closing the journal.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatalf("drain after hard stop: %v", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir)
	for _, st := range j2.Recovered() {
		if st.ID == v.ID && st.Terminal() {
			t.Fatalf("hard-stopped job journaled terminal: %s", st.Status)
		}
	}
	cfg2 := testConfig()
	cfg2.Journal = j2
	s2 := startServer(t, cfg2)
	fin := pollDone(t, s2, v.ID)
	if fin.Status != JobDone {
		t.Fatalf("recovered job: %s (%+v)", fin.Status, fin.Error)
	}
	want := directBytes(t, realSrc, "slow", CompileOptions{Seed: 9, Iterations: 400000})
	if !bytes.Equal(fin.Result, want) {
		t.Fatal("recovered result differs from direct compile")
	}
}

// TestJournalRecoveryWithFullQueue replays more interrupted jobs than the
// new process's queue can hold: the overflow must fail visibly (pollable,
// journaled) rather than vanish or wedge New.
func TestJournalRecoveryWithFullQueue(t *testing.T) {
	dir := t.TempDir()
	jw := openJournal(t, dir)
	for i := 0; i < 5; i++ {
		body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: int64(i), Iterations: 2000})
		ev := journal.Event{Kind: journal.KindAccepted, JobID: fmt.Sprintf("lostjob-%d", i), Request: body}
		if err := jw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	jr := openJournal(t, dir)
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.Journal = jr
	s := startServer(t, cfg)
	var done, failed int
	for i := 0; i < 5; i++ {
		v := pollDone(t, s, fmt.Sprintf("lostjob-%d", i))
		switch v.Status {
		case JobDone:
			done++
		case JobFailed:
			failed++
			if v.Error == nil || v.Error.Message == "" {
				t.Fatalf("overflow job %d failed without a structured error", i)
			}
		}
	}
	if done+failed != 5 || done < 2 {
		t.Fatalf("recovery with full queue: done=%d failed=%d", done, failed)
	}

	// The failures were journaled: a further restart keeps them terminal
	// instead of retrying forever.
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openJournal(t, dir)
	defer func() {
		if err := j3.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	terminal := 0
	for _, st := range j3.Recovered() {
		if st.Terminal() {
			terminal++
		}
	}
	if terminal != 5 {
		t.Fatalf("journal after recovery: %d terminal states, want 5", terminal)
	}
}

// TestJournalRecoveryFailsUnparsableRequest replays an accepted job whose
// request bytes no longer parse: a journal written by a build that took an
// options field this build rejects as unknown. Recovery must fail the job
// visibly with a structured 400, count it as recovered, and journal the
// failure so the next restart serves the same terminal state.
func TestJournalRecoveryFailsUnparsableRequest(t *testing.T) {
	dir := t.TempDir()
	jw := openJournal(t, dir)
	body := []byte(fmt.Sprintf(`{"real":%q,"name":"fig4","options":{"seed":1,"retired_option":2}}`, realSrc))
	if err := jw.Append(journal.Event{Kind: journal.KindAccepted, JobID: "oldjob-1", Request: body}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	restart := func() (JobView, MetricsSnapshot) {
		j := openJournal(t, dir)
		cfg := testConfig()
		cfg.Journal = j
		s := startServer(t, cfg)
		v := pollDone(t, s, "oldjob-1")
		var snap MetricsSnapshot
		if err := json.Unmarshal(get(s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return v, snap
	}
	first, snap := restart()
	if first.Status != JobFailed || first.Error == nil || first.Error.Message == "" {
		t.Fatalf("unparsable job after recovery: %s, error %+v; want failed with a structured error", first.Status, first.Error)
	}
	if snap.Journal == nil || snap.Journal.RecoveredInterrupted != 1 {
		t.Fatalf("journal metrics %+v, want the job counted as recovered_interrupted", snap.Journal)
	}

	// The failure is journaled with its 400, so the next restart restores
	// the same terminal state instead of re-parsing the request.
	j := openJournal(t, dir)
	states := j.Recovered()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Status != journal.StatusFailed {
		t.Fatalf("journal after recovery: %+v, want one failed job", states)
	}
	if ae := decodeWireError(states[0].Error); ae.Status != 400 || ae.Body != *first.Error {
		t.Fatalf("journaled error %d %+v, want 400 %+v", ae.Status, ae.Body, *first.Error)
	}
	second, _ := restart()
	if second.Status != first.Status || *second.Error != *first.Error {
		t.Fatalf("second restart: %s %+v, want %s %+v", second.Status, second.Error, first.Status, first.Error)
	}
}

// TestDrainDeadlineJournalsInterrupted documents the Drain/Close ordering
// contract: when the drain budget expires with jobs still queued, those
// jobs stay journaled as interrupted and the next process re-enqueues
// them — nothing is lost, nothing is falsely failed.
func TestDrainDeadlineJournalsInterrupted(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Journal = j1
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s1.Start(ctx)
	var ids []string
	for i := 0; i < 3; i++ {
		body := compileBody(t, realSrc, "slow", CompileOptions{Seed: int64(50 + i), Iterations: 400000})
		w := post(s1, "/v1/jobs", body)
		if w.Code != 202 {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
		var v JobView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// An expired drain budget: queued work is still pending.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	if err := s1.Drain(dctx); err == nil {
		t.Fatal("drain with pending slow jobs should exceed a 1ms budget")
	}
	cancel() // hard stop, per the documented Drain-then-cancel ordering
	time.Sleep(50 * time.Millisecond)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir)
	states := map[string]journal.JobState{}
	for _, st := range j2.Recovered() {
		states[st.ID] = st
	}
	for _, id := range ids {
		st, ok := states[id]
		if !ok {
			t.Fatalf("job %s lost from the journal", id)
		}
		if st.Status == journal.StatusFailed {
			t.Fatalf("job %s falsely journaled failed by the aborted drain", id)
		}
	}
	cfg2 := testConfig()
	cfg2.Journal = j2
	s2 := startServer(t, cfg2)
	for _, id := range ids {
		if v := pollDone(t, s2, id); v.Status != JobDone {
			t.Fatalf("job %s after recovery: %s (%+v)", id, v.Status, v.Error)
		}
	}
}
