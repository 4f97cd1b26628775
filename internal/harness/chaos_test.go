package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/qc"
	"repro/internal/server"
	"repro/tqec"
)

// chaosSrc is a tiny 3-CNOT circuit (the paper's Fig. 4 example) that
// compiles in milliseconds, so the soak turns jobs over fast enough to
// catch crashes in every lifecycle phase.
const chaosSrc = ".version 1.0\n.numvars 3\n.variables a b c\n.begin\nt2 a b\nt2 b c\nt2 a c\n.end\n"

// chaosVariants are the distinct request option sets the soak cycles
// through; each maps to one expected canonical payload.
var chaosVariants = []server.CompileOptions{
	{Seed: 1, Iterations: 2000},
	{Seed: 2, Iterations: 2000},
	{Seed: 3, Iterations: 2000},
	{Seed: 4, Iterations: 2000},
}

// chaosBody renders the soak request body for one variant.
func chaosBody(t *testing.T, o server.CompileOptions) []byte {
	t.Helper()
	b, err := json.Marshal(server.CompileRequest{Real: chaosSrc, Name: "fig4", Options: o})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosDirect computes the canonical payload for a variant the same way
// the service must serve it, for byte-identity assertions that are
// independent of any server or cache under test.
func chaosDirect(t *testing.T, o server.CompileOptions) []byte {
	t.Helper()
	c, err := qc.ParseReal("fig4", strings.NewReader(chaosSrc))
	if err != nil {
		t.Fatal(err)
	}
	opts := tqec.DefaultOptions()
	opts.Place.Seed = o.Seed
	opts.Place.Iterations = o.Iterations
	res, err := tqec.CompileContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := tqec.CacheKey(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.EncodeResult(key, res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosRig owns the restartable server under test: a journal directory
// shared across "process" generations, the current server instance behind
// an atomic pointer (so the HTTP front door survives restarts), and the
// crash cycle that hard-stops one generation and recovers the next from
// the journal alone.
type chaosRig struct {
	t   *testing.T
	dir string

	mu     sync.Mutex
	jnl    *journal.Journal
	cancel context.CancelFunc

	cur          atomic.Pointer[server.Server]
	corruptArmed atomic.Bool
	restarts     atomic.Uint64
}

// chaosJournalOpts keeps soak journals small and fast (no fsync), with
// finished-job retention raised far above what a soak can accept — the
// accounting phase audits every accepted job, so the default retention
// caps (tuned for a long-lived service) must not evict any of them.
func chaosJournalOpts() journal.Options {
	return journal.Options{SegmentBytes: 1 << 20, RetainFinished: 1 << 17, NoSync: true}
}

// start boots a fresh server generation over the shared journal
// directory. Callers hold rig.mu (or are still single-goroutine).
func (rig *chaosRig) start() {
	j, err := journal.Open(rig.dir, chaosJournalOpts())
	if err != nil {
		rig.t.Error(err)
		return
	}
	cfg := server.Config{
		Workers: 2, QueueDepth: 128, CacheBytes: 1 << 20,
		MaxJobs:        1 << 17,
		DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute,
		Journal: j,
	}
	s, err := server.New(cfg)
	if err != nil {
		rig.t.Error(err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	rig.jnl, rig.cancel = j, cancel
	rig.cur.Store(s)
	rig.restarts.Add(1)
}

// crash simulates a process death and restart: hard-stop the lifetime
// context, let in-flight work unwind, close the journal, optionally
// scribble garbage on its tail (the armed corruption), and recover a new
// generation from the directory. Serialized so overlapping chaos triggers
// queue instead of racing.
func (rig *chaosRig) crash() {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	rig.cancel()
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer dcancel()
	if err := rig.cur.Load().Drain(dctx); err != nil {
		rig.t.Errorf("chaos drain: %v", err)
	}
	if err := rig.jnl.Close(); err != nil {
		rig.t.Errorf("chaos journal close: %v", err)
	}
	if rig.corruptArmed.Swap(false) {
		rig.scribble()
	}
	rig.start()
}

// scribble appends garbage to the newest journal segment while it is
// closed — a torn/corrupted tail the next generation's decoder must
// detect, truncate and survive without losing any intact record.
func (rig *chaosRig) scribble() {
	names, err := filepath.Glob(filepath.Join(rig.dir, "*.wal"))
	if err != nil || len(names) == 0 {
		rig.t.Errorf("scribble: no journal segments (%v)", err)
		return
	}
	sort.Strings(names)
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		rig.t.Errorf("scribble open: %v", err)
		return
	}
	if _, err := f.Write([]byte("\xde\xad\xbe\xef torn tail garbage")); err != nil {
		rig.t.Errorf("scribble write: %v", err)
	}
	if err := f.Close(); err != nil {
		rig.t.Errorf("scribble close: %v", err)
	}
}

// shutdown drains the final generation and closes its journal cleanly.
func (rig *chaosRig) shutdown() {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer dcancel()
	if err := rig.cur.Load().Drain(dctx); err != nil {
		rig.t.Errorf("final drain: %v", err)
	}
	rig.cancel()
	if err := rig.jnl.Close(); err != nil {
		rig.t.Errorf("final journal close: %v", err)
	}
}

// chaosSeconds reads the soak duration from TQEC_CHAOS_SECONDS (the
// `make chaos` knob), defaulting to a short always-on run.
func chaosSeconds(t *testing.T) time.Duration {
	t.Helper()
	v := os.Getenv("TQEC_CHAOS_SECONDS")
	if v == "" {
		return 3 * time.Second
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		t.Fatalf("TQEC_CHAOS_SECONDS=%q: want a positive integer", v)
	}
	return time.Duration(n) * time.Second
}

// TestChaosSoak is the service-layer chaos drill: a journal-backed tqecd
// is bombarded with async jobs while a ChaosPlan injects 5xx bursts, slow
// responses, periodic hard crashes with journal-only recovery, and
// torn-tail journal corruption. Afterwards every accepted job must be
// terminal exactly once, every completed payload byte-identical to an
// independent direct compile, and the journal's own record must agree —
// no job lost, none double-completed.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	rig := &chaosRig{t: t, dir: t.TempDir()}
	rig.start()

	plan := &ChaosPlan{
		Seed:          42,
		ErrorFraction: 0.02,
		BurstLen:      3,
		SlowFraction:  0.05,
		SlowDelay:     20 * time.Millisecond,
		CrashEvery:    250,
		Crash:         rig.crash,
		CorruptEvery:  600,
		Corrupt:       func() { rig.corruptArmed.Store(true) },
	}
	front := httptest.NewServer(plan.Middleware(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			rig.cur.Load().ServeHTTP(w, r)
		})))
	defer front.Close()
	client := &http.Client{Transport: plan.RoundTripper(nil), Timeout: 30 * time.Second}

	// The soak: rounds of concurrent async submissions, polled through
	// the chaos layers, until the budget expires. Every 202-accepted job
	// ID is recorded with its expected variant.
	type accepted struct {
		id      string
		variant int
	}
	var acc []accepted
	deadline := time.Now().Add(chaosSeconds(t))
	for round := 0; time.Now().Before(deadline); round++ {
		bodies := make([][]byte, 12)
		for i := range bodies {
			bodies[i] = chaosBody(t, chaosVariants[(round*len(bodies)+i)%len(chaosVariants)])
		}
		results, err := RunLoad(context.Background(), LoadOptions{
			BaseURL:      front.URL,
			Client:       client,
			Bodies:       bodies,
			Concurrency:  4,
			Async:        true,
			PollInterval: 15 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, r := range results {
			if r.JobID != "" {
				acc = append(acc, accepted{id: r.JobID, variant: (round*len(bodies) + r.Index) % len(chaosVariants)})
			}
		}
	}
	if len(acc) == 0 {
		t.Fatal("soak accepted no jobs")
	}

	// One last controlled kill/restart so even jobs accepted in the final
	// instants recover from the journal, then settle with chaos disabled
	// so the accounting phase sees the service, not the injection.
	plan.Disable()
	rig.crash()
	stats := plan.Stats()
	t.Logf("chaos soak: %d accepted jobs, %d restarts, stats %+v", len(acc), rig.restarts.Load(), stats)
	if stats.Shed == 0 || stats.Delayed == 0 {
		t.Fatalf("chaos plan never fired: %+v", stats)
	}
	if rig.restarts.Load() < 2 {
		t.Fatalf("soak never crashed a generation: %d restarts", rig.restarts.Load())
	}

	// Every accepted job must reach a terminal state on the recovered
	// server: done payloads byte-identical to an independent compile,
	// failures visible and structured, and a second poll identical to the
	// first (completed exactly once, terminally sticky).
	expected := make([][]byte, len(chaosVariants))
	for i, o := range chaosVariants {
		expected[i] = chaosDirect(t, o)
	}
	calm := &http.Client{Timeout: 30 * time.Second}
	seen := map[string]bool{}
	var done, failed int
	for _, a := range acc {
		if seen[a.id] {
			t.Fatalf("job %s accepted twice", a.id)
		}
		seen[a.id] = true
		v := chaosPollDone(t, calm, front.URL, a.id)
		again := chaosPollDone(t, calm, front.URL, a.id)
		if v.Status != again.Status || !bytes.Equal(v.Result, again.Result) {
			t.Fatalf("job %s changed after completion: %s vs %s", a.id, v.Status, again.Status)
		}
		switch v.Status {
		case "done":
			done++
			if !bytes.Equal(v.Result, expected[a.variant]) {
				t.Fatalf("job %s payload differs from the direct compile of variant %d", a.id, a.variant)
			}
		case "failed":
			failed++
			if len(v.Error) == 0 {
				t.Fatalf("job %s failed without a structured error", a.id)
			}
		default:
			t.Fatalf("job %s not terminal: %s", a.id, v.Status)
		}
	}
	t.Logf("chaos soak: %d done, %d failed", done, failed)
	if done == 0 {
		t.Fatal("no job completed through the chaos")
	}

	// The journal's own record must agree: after a clean shutdown, replay
	// shows exactly one terminal state per accepted job, with done
	// payloads byte-identical to the direct compile.
	rig.shutdown()
	j, err := journal.Open(rig.dir, chaosJournalOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	states := map[string]journal.JobState{}
	for _, st := range j.Recovered() {
		states[st.ID] = st
	}
	for _, a := range acc {
		st, ok := states[a.id]
		if !ok {
			t.Fatalf("job %s lost from the journal", a.id)
		}
		if !st.Terminal() {
			t.Fatalf("job %s non-terminal in the journal after shutdown: %s", a.id, st.Status)
		}
		if st.Status == journal.StatusDone && !bytes.Equal(st.Result, expected[a.variant]) {
			t.Fatalf("journaled payload for %s differs from the direct compile", a.id)
		}
	}
}

// chaosPollDone polls a job through plain HTTP (no chaos) to a terminal
// state.
func chaosPollDone(t *testing.T, client *http.Client, base, id string) loadJobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st, payload, err := getJSON(ctx, client, base+"/v1/jobs/"+id)
		cancel()
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if st != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, st, payload)
		}
		var v loadJobView
		if err := json.Unmarshal(payload, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" || v.Status == "failed" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
