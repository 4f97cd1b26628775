package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/qc"
	"repro/tqec"
)

// realSrc is a tiny 3-CNOT circuit (the paper's Fig. 4 example) that
// compiles in milliseconds.
const realSrc = ".version 1.0\n.numvars 3\n.variables a b c\n.begin\nt2 a b\nt2 b c\nt2 a c\n.end\n"

// realSrc2 is a distinct circuit for multi-key tests.
const realSrc2 = ".version 1.0\n.numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n"

// testConfig keeps compiles fast and queues small.
func testConfig() Config {
	return Config{Workers: 2, QueueDepth: 16, CacheBytes: 1 << 20,
		DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute}
}

// startServer builds and starts a server whose workers stop with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	return s
}

// compileBody builds a request body for the inline circuit source.
func compileBody(t *testing.T, src, name string, opts CompileOptions) []byte {
	t.Helper()
	b, err := json.Marshal(CompileRequest{Real: src, Name: name, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post performs an in-process request against the handler.
func post(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", path, bytes.NewReader(body))
	s.ServeHTTP(w, r)
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func TestCompileSyncCacheAndDeterminism(t *testing.T) {
	s := startServer(t, testConfig())
	body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 7, Iterations: 2000})

	w1 := post(s, "/v1/compile", body)
	if w1.Code != 200 {
		t.Fatalf("first compile: %d %s", w1.Code, w1.Body)
	}
	if got := w1.Header().Get("X-Tqecd-Cache"); got != "miss" {
		t.Fatalf("first compile cache header = %q, want miss", got)
	}
	w2 := post(s, "/v1/compile", body)
	if w2.Code != 200 || w2.Header().Get("X-Tqecd-Cache") != "hit" {
		t.Fatalf("second compile: %d, cache %q", w2.Code, w2.Header().Get("X-Tqecd-Cache"))
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached response differs from the original")
	}

	// The served payload must be byte-identical to a direct
	// tqec.CompileContext run with the same seed.
	c, err := qc.ParseReal("fig4", strings.NewReader(realSrc))
	if err != nil {
		t.Fatal(err)
	}
	opts := requestOptions(CompileOptions{Seed: 7, Iterations: 2000})
	res, err := tqec.CompileContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := tqec.CacheKey(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EncodeResult(key, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Body.Bytes(), direct) {
		t.Fatalf("served body differs from direct compile:\n served %s\n direct %s", w1.Body, direct)
	}
	if got := w1.Header().Get("X-Tqecd-Cache-Key"); got != key {
		t.Fatalf("cache-key header %q, want %q", got, key)
	}
}

// TestDaggerTwinsMissTheCache pins that the content address follows the
// decomposed circuit. The two circuits differ only in a controlled V
// against a controlled V†: they lower to the same ICM form, but the ZX
// pass reads the daggers and they compile to different volumes, so the
// second request must miss and serve its own compile.
func TestDaggerTwinsMissTheCache(t *testing.T) {
	s := startServer(t, testConfig())
	opts := CompileOptions{Seed: 1, Chains: 1}
	const head = ".version 1.0\n.numvars 3\n.variables a b c\n.begin\nv a b\n"
	var bodies [][]byte
	for _, src := range []string{
		head + "v a b\nt2 b c\n.end\n",
		head + "v+ a b\nt2 b c\n.end\n",
	} {
		w := post(s, "/v1/compile", compileBody(t, src, "twin", opts))
		if w.Code != 200 {
			t.Fatalf("compile: %d %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Tqecd-Cache"); got != "miss" {
			t.Fatalf("cache header = %q, want miss", got)
		}
		if direct := directBytes(t, src, "twin", opts); !bytes.Equal(w.Body.Bytes(), direct) {
			t.Fatalf("served body differs from direct compile:\n served %s\n direct %s", w.Body, direct)
		}
		bodies = append(bodies, w.Body.Bytes())
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the twins compiled to the same payload")
	}
}

// TestNegativeCacheBytesDisablesCache pins the tqecd -cache-bytes
// contract: a negative budget disables the result cache, so a repeated
// compile misses again and nothing is stored.
func TestNegativeCacheBytesDisablesCache(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = -1
	s := startServer(t, cfg)
	body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 7, Iterations: 2000})
	for i := 0; i < 2; i++ {
		w := post(s, "/v1/compile", body)
		if w.Code != 200 {
			t.Fatalf("compile %d: %d %s", i, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Tqecd-Cache"); got != "miss" {
			t.Fatalf("compile %d cache header = %q, want miss", i, got)
		}
	}
	if n := s.cache.Stats().Entries; n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
}

func TestCompileBenchSource(t *testing.T) {
	s := startServer(t, testConfig())
	b, err := json.Marshal(CompileRequest{Bench: "4gt10-v1_81", Options: CompileOptions{Seed: 1, Iterations: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	w := post(s, "/v1/compile", b)
	if w.Code != 200 {
		t.Fatalf("bench compile: %d %s", w.Code, w.Body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "4gt10-v1_81" || resp.Volume <= 0 {
		t.Fatalf("response %+v", resp)
	}
}

func TestCompileRequestErrors(t *testing.T) {
	s := startServer(t, testConfig())
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, 400},
		{"unknown field", `{"bogus":1}`, 400},
		{"no source", `{"options":{}}`, 400},
		{"both sources", `{"bench":"x","real":"y"}`, 400},
		{"unknown bench", `{"bench":"no-such-benchmark"}`, 404},
		{"bad real", `{"real":"t2 a b"}`, 400},
		{"trailing data", `{"bench":"4gt10-v1_81"} {"x":1}`, 400},
	}
	for _, c := range cases {
		w := post(s, "/v1/compile", []byte(c.body))
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, w.Code, c.want, w.Body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Message == "" {
			t.Errorf("%s: error body not structured: %s (%v)", c.name, w.Body, err)
		}
	}
}

func TestCompileDeadlineError(t *testing.T) {
	s := startServer(t, testConfig())
	// A microscopic budget forces ErrCanceled inside the pipeline.
	body := compileBody(t, realSrc, "slow", CompileOptions{Seed: 1, Iterations: 500000, TimeoutMS: 1})
	w := post(s, "/v1/compile", body)
	if w.Code != 504 {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Sentinel != "canceled" || er.Error.Stage == "" {
		t.Fatalf("error body %+v: want sentinel canceled with a stage tag", er.Error)
	}
}

// TestIdentityCircuitIsEmpty pins one answer for a circuit that reduces to
// nothing (six NOTs that cancel pairwise), whole or partitioned: 422 with
// sentinel empty from the placement stage, never a 500 or a made-up volume.
func TestIdentityCircuitIsEmpty(t *testing.T) {
	const identity = ".version 1.0\n.numvars 5\n.variables a b c d e\n.begin\n" +
		"t1 a\nt1 b\nt1 a\nt1 c\nt1 b\nt1 c\n.end\n"
	s := startServer(t, testConfig())
	for _, qubits := range []int{0, 3} {
		w := post(s, "/v1/compile", compileBody(t, identity, "identity",
			CompileOptions{Seed: 1, Iterations: 2000, PartitionQubits: qubits}))
		if w.Code != 422 {
			t.Fatalf("partition_qubits %d: status %d, want 422 (body %s)", qubits, w.Code, w.Body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.Error.Stage != string(tqec.StagePlacement) || er.Error.Sentinel != "empty" {
			t.Fatalf("partition_qubits %d: error body %+v, want stage placement and sentinel empty", qubits, er.Error)
		}
	}
}

func TestJobsLifecycle(t *testing.T) {
	s := startServer(t, testConfig())
	body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 3, Iterations: 2000})

	w := post(s, "/v1/jobs", body)
	if w.Code != 202 {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var v JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Key == "" {
		t.Fatalf("job view %+v", v)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		w = get(s, "/v1/jobs/"+v.ID)
		if w.Code != 200 {
			t.Fatalf("poll: %d %s", w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobDone || v.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Status != JobDone || v.Cache != "miss" || len(v.Result) == 0 {
		t.Fatalf("finished job %+v", v)
	}

	// The same submission now completes instantly from the cache.
	w = post(s, "/v1/jobs", body)
	if w.Code != 200 {
		t.Fatalf("resubmit: %d %s", w.Code, w.Body)
	}
	var v2 JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Status != JobDone || v2.Cache != "hit" {
		t.Fatalf("resubmitted job %+v", v2)
	}
	if !bytes.Equal(v2.Result, v.Result) {
		t.Fatal("cached job result differs")
	}

	// The sync endpoint shares the same cache.
	w = post(s, "/v1/compile", body)
	if w.Code != 200 || w.Header().Get("X-Tqecd-Cache") != "hit" {
		t.Fatalf("sync after async: %d, cache %q", w.Code, w.Header().Get("X-Tqecd-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), v.Result) {
		t.Fatal("sync body differs from async result")
	}
}

func TestJobNotFound(t *testing.T) {
	s := startServer(t, testConfig())
	if w := get(s, "/v1/jobs/nope"); w.Code != 404 {
		t.Fatalf("status %d, want 404", w.Code)
	}
}

func TestOverloadReturns429(t *testing.T) {
	// One-slot queue and a never-started pool: the first submission
	// occupies the queue, the second must bounce with 429 and depth
	// headers.
	s, err := New(Config{Workers: 1, QueueDepth: 1, CacheBytes: 1 << 20,
		DefaultTimeout: time.Second, MaxTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b1 := compileBody(t, realSrc, "a", CompileOptions{Seed: 1, Iterations: 1000})
	b2 := compileBody(t, realSrc2, "b", CompileOptions{Seed: 1, Iterations: 1000})
	if w := post(s, "/v1/jobs", b1); w.Code != 202 {
		t.Fatalf("first submit: %d %s", w.Code, w.Body)
	}
	w := post(s, "/v1/jobs", b2)
	if w.Code != 429 {
		t.Fatalf("second submit: %d, want 429 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("X-Tqecd-Queue-Depth") != "1" || w.Header().Get("X-Tqecd-Queue-Capacity") != "1" {
		t.Fatalf("queue headers missing: %v", w.Header())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Message == "" {
		t.Fatalf("429 body not structured: %s", w.Body)
	}
}

func TestDrainRejectsAndFinishesQueued(t *testing.T) {
	s := startServer(t, testConfig())
	body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 11, Iterations: 2000})
	w := post(s, "/v1/jobs", body)
	if w.Code != 202 {
		t.Fatalf("submit: %d", w.Code)
	}
	var v JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The queued job ran to completion during the drain.
	w = get(s, "/v1/jobs/"+v.ID)
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != JobDone {
		t.Fatalf("job after drain: %+v", v)
	}
	// New work is rejected with 503, and healthz reports draining.
	if w := post(s, "/v1/compile", body); w.Header().Get("X-Tqecd-Cache") == "miss" {
		t.Fatalf("post-drain compile was accepted for compute: %d", w.Code)
	}
	w2 := post(s, "/v1/compile", compileBody(t, realSrc2, "other", CompileOptions{Seed: 1}))
	if w2.Code != 503 {
		t.Fatalf("post-drain new-key compile: %d, want 503", w2.Code)
	}
	if h := get(s, "/healthz"); h.Code != 503 || !strings.Contains(h.Body.String(), "draining") {
		t.Fatalf("healthz after drain: %d %s", h.Code, h.Body)
	}
}

func TestHealthz(t *testing.T) {
	s := startServer(t, testConfig())
	w := get(s, "/healthz")
	if w.Code != 200 {
		t.Fatalf("healthz: %d", w.Code)
	}
	var h HealthBody
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueCapacity != 16 {
		t.Fatalf("health %+v", h)
	}
}

// TestMetricsJSONGolden pins the exact JSON wire shape of /v1/metrics on a
// fresh server: field names and nesting are API, monitored by dashboards.
func TestMetricsJSONGolden(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 8, CacheBytes: 1024,
		DefaultTimeout: time.Second, MaxTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := get(s, "/v1/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	const want = `{"server":{"requests":0,"compiles":0,"errors":0,"rejected":0,"write_errors":0},` +
		`"queue":{"depth":0,"capacity":8,"workers":2,"busy":0},` +
		`"jobs":{"submitted":0,"queued":0,"running":0,"done":0,"failed":0,"evicted":0},` +
		`"cache":{"lookups":0,"hits":0,"misses":0,"shared":0,"evictions":0,"uncacheable":0,"entries":0,"bytes":0,"max_bytes":1024},` +
		`"resilience":{"retries":0,"breaker_state":"closed","breaker_trips":0,"admission_rejected":0,"compile_ewma_ns":0},` +
		`"latency_ns":{` +
		`"compile":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"queue_wait":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:dual-defect net routing":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:iterative bridging":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:module placement":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:other":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:qubit partition":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:seam stitching":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0},` +
		`"stage:zx rewrite":{"count":0,"sum_ns":0,"min_ns":0,"max_ns":0}}}`
	if got := w.Body.String(); got != want {
		t.Fatalf("metrics JSON:\n got %s\nwant %s", got, want)
	}
}

func TestMetricsCountTraffic(t *testing.T) {
	s := startServer(t, testConfig())
	body := compileBody(t, realSrc, "fig4", CompileOptions{Seed: 5, Iterations: 2000})
	for i := 0; i < 3; i++ {
		if w := post(s, "/v1/compile", body); w.Code != 200 {
			t.Fatalf("compile %d: %d", i, w.Code)
		}
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(get(s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Server.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (single-flight + cache)", snap.Server.Compiles)
	}
	if snap.Cache.Hits != 2 || snap.Cache.Misses != 1 {
		t.Fatalf("cache stats %+v", snap.Cache)
	}
	if snap.LatencyNS["compile"].Count != 1 {
		t.Fatalf("compile histogram %+v", snap.LatencyNS["compile"])
	}
	for _, stage := range []string{"stage:module placement", "stage:zx rewrite"} {
		if snap.LatencyNS[stage].Count != 1 {
			t.Fatalf("%s histogram %+v, want one sample", stage, snap.LatencyNS[stage])
		}
	}
	// An unpartitioned compile never runs the partition stage.
	if snap.LatencyNS["stage:qubit partition"].Count != 0 {
		t.Fatalf("partition histogram %+v, want no sample", snap.LatencyNS["stage:qubit partition"])
	}
	if snap.LatencyNS["queue_wait"].Count != 1 {
		t.Fatalf("queue-wait histogram %+v", snap.LatencyNS["queue_wait"])
	}
}

func TestTimeoutClamping(t *testing.T) {
	lim := parseLimits{defaultTimeout: time.Second, maxTimeout: 2 * time.Second}
	ct, aerr := buildCompileTask(&CompileRequest{Real: realSrc, Options: CompileOptions{TimeoutMS: 3600_000}}, lim)
	if aerr != nil {
		t.Fatalf("buildCompileTask: %+v", aerr)
	}
	if ct.timeout != 2*time.Second {
		t.Fatalf("timeout %v, want clamped to 2s", ct.timeout)
	}
	ct, aerr = buildCompileTask(&CompileRequest{Real: realSrc}, lim)
	if aerr != nil {
		t.Fatalf("buildCompileTask: %+v", aerr)
	}
	if ct.timeout != time.Second {
		t.Fatalf("timeout %v, want default 1s", ct.timeout)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := startServer(t, testConfig())
	if w := get(s, "/v1/compile"); w.Code != 405 {
		t.Fatalf("GET /v1/compile: %d, want 405", w.Code)
	}
}

// FuzzParseCompileRequest feeds arbitrary bodies through the request
// parser (and thus the .real parser, decomposer, ICM converter and cache
// key hasher): it must reject garbage with a structured error, never
// panic. The seed corpus under testdata/fuzz is replayed by `make
// fuzz-seeds`.
func FuzzParseCompileRequest(f *testing.F) {
	f.Add([]byte(`{"bench":"4gt10-v1_81","options":{"seed":1}}`))
	f.Add([]byte(fmt.Sprintf(`{"real":%q,"name":"fig4","options":{"iterations":100,"timeout_ms":5}}`, realSrc)))
	f.Add([]byte(`{"real":".numvars 1\n.begin\nt1 x0\n.end"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"bench":"x","real":"y"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, aerr := parseCompileRequest(bytes.NewReader(data),
			parseLimits{defaultTimeout: time.Second, maxTimeout: time.Minute})
		if (ct == nil) == (aerr == nil) {
			t.Fatalf("exactly one of task/error must be set: %v %v", ct, aerr)
		}
		if aerr != nil && (aerr.Status < 400 || aerr.Status > 599 || aerr.Body.Message == "") {
			t.Fatalf("malformed apiError %+v", aerr)
		}
		if ct != nil && (len(ct.key) != 64 || ct.timeout <= 0) {
			t.Fatalf("malformed task: key %q timeout %v", ct.key, ct.timeout)
		}
	})
}
