// Package server implements the tqecd compile service: an HTTP/JSON daemon
// over tqec.CompileContext with a bounded FIFO job queue drained by a
// worker pool, a content-addressed single-flight result cache, and live
// metrics.
//
// Endpoints:
//
//	POST /v1/compile      synchronous compile; responds with the result
//	                      payload and X-Tqecd-Cache{,-Key} headers
//	POST /v1/jobs         asynchronous compile; responds 202 with a job ID
//	GET  /v1/jobs/{id}    poll a job: queued/running/done/failed
//	GET  /v1/metrics      counters, queue gauges, cache stats, latency
//	                      histograms (JSON)
//	GET  /healthz         liveness and drain state
//
// Compilation is deterministic for a fixed (circuit, options) pair, so
// results are content-addressed by tqec.CacheKey: concurrent identical
// requests coalesce onto one compile (single-flight) and repeats are served
// from the in-memory LRU byte-for-byte identically. Failures surface as
// structured JSON errors carrying the failed stage and the faults-taxonomy
// sentinel; queue overload returns 429 with queue-depth headers; draining
// returns 503 while queued work finishes.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ccache"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/tqec"
)

// Journal is the durability hook the server writes async job lifecycle
// events through. *journal.Journal implements it; a nil Journal in Config
// keeps today's purely in-memory behaviour.
type Journal interface {
	// Append durably records one lifecycle event before the server acts
	// on it.
	Append(ev journal.Event) error
	// Recovered returns the job states replayed at open, in acceptance
	// order; New consumes them to re-enqueue interrupted jobs and restore
	// finished ones.
	Recovered() []journal.JobState
	// Stats snapshots the journal counters for /v1/metrics.
	Stats() journal.Stats
}

// Config sizes the service. Zero values mean defaults.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO job queue (default 64).
	QueueDepth int
	// CacheBytes bounds the result cache payload bytes (default 64 MiB).
	CacheBytes int64
	// PartitionQubits, when positive, makes partitioned compilation the
	// default: requests that leave partition_qubits at 0 compile with
	// this per-part qubit cap (a negative request value still forces the
	// ordinary pipeline). 0 keeps unpartitioned compiles the default.
	PartitionQubits int
	// DefaultTimeout bounds each compile when the request does not set
	// one (default 2m).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts (default 10m).
	MaxTimeout time.Duration
	// MaxJobs bounds the async job registry (default 1024).
	MaxJobs int
	// JobTTL bounds how long finished async jobs stay pollable (default
	// 15m; negative disables TTL eviction, leaving only the MaxJobs cap).
	JobTTL time.Duration
	// MaxBodyBytes bounds request bodies (default 4 MiB).
	MaxBodyBytes int64
	// Journal, when non-nil, makes async jobs durable: every lifecycle
	// event is appended (and fsync'd) before the server acknowledges it,
	// and New replays the journal's recovered states — re-enqueueing
	// interrupted jobs and restoring finished ones into the registry and
	// result cache. Nil keeps jobs in memory only.
	Journal Journal
	// BreakerThreshold is how many consecutive systemic compile failures
	// (panics, invariant violations, unresolved transients) trip the
	// circuit breaker open (default 8).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker sheds load before
	// probing (default 10s).
	BreakerCooldown time.Duration
	// DisableAdmission turns off deadline-aware admission control, which
	// otherwise rejects a request on arrival (429 + Retry-After) when the
	// queue's estimated drain time already exceeds its deadline.
	DisableAdmission bool
	// AllowFaultInjection admits the fault_attempts chaos hook in request
	// options. Leave off outside tests and chaos drills.
	AllowFaultInjection bool
	// Retry tunes the transient-failure retry inside the compile path.
	// Zero fields mean defaults (3 attempts, 5ms..100ms backoff).
	Retry RetryConfig
}

// RetryConfig tunes the server's compile retry loop.
type RetryConfig struct {
	// MaxAttempts bounds compile attempts per request (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff; workers sleep through it, so it stays
	// small (default 100ms).
	MaxDelay time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 5 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = 100 * time.Millisecond
	}
	return c
}

// limits bundles the request-parsing knobs.
func (c Config) limits() parseLimits {
	return parseLimits{defaultTimeout: c.DefaultTimeout, maxTimeout: c.MaxTimeout,
		allowFaults: c.AllowFaultInjection, defaultPartition: c.PartitionQubits}
}

// Server is the compile service. Create with New, launch the workers with
// Start, serve it as an http.Handler, and stop with Drain.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *ccache.Cache
	jobs     *jobRegistry
	mux      *http.ServeMux
	breaker  *resilience.Breaker
	draining atomic.Bool
	// lifetime holds the Start context so the compile path can tell a
	// hard stop (lifetime canceled: leave the job un-acknowledged in the
	// journal for recovery) from an ordinary per-request deadline (a real
	// failure to record).
	lifetime atomic.Value // context.Context

	requests      metrics.Counter
	compiles      metrics.Counter
	errorsTotal   metrics.Counter
	rejected      metrics.Counter
	writeErrors   metrics.Counter
	jobsSubmitted metrics.Counter
	retries       metrics.Counter
	transients    metrics.Counter
	admissionRej  metrics.Counter
	journalErrs   metrics.Counter
	compileEWMA   atomic.Int64 // ns, exponentially weighted compile latency
	recInterrupt  int64        // jobs re-enqueued by recovery
	recFinished   int64        // jobs restored terminal by recovery
	compileHist   *metrics.Histogram
	stageHists    map[string]*metrics.Histogram
}

// New builds a server from the config. With a journal configured it also
// runs crash recovery: finished jobs return to the registry (and their
// results to the cache), interrupted jobs are re-enqueued under their
// original IDs — so the worker pool starts with the backlog the previous
// process lost.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	jobs, err := newJobRegistry(cfg.MaxJobs, cfg.JobTTL)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		pool:        newPool(cfg.Workers, cfg.QueueDepth),
		cache:       ccache.New(cfg.CacheBytes),
		jobs:        jobs,
		mux:         http.NewServeMux(),
		breaker:     resilience.NewBreaker(resilience.BreakerSettings{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown}),
		compileHist: metrics.NewHistogram(),
		stageHists:  map[string]*metrics.Histogram{},
	}
	for _, stage := range metrics.AllStages {
		s.stageHists[stage] = metrics.NewHistogram()
	}
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Journal != nil {
		s.recoverFromJournal()
	}
	return s, nil
}

// Start launches the worker pool. ctx is the pool's lifetime: canceling it
// aborts in-flight compiles (hard stop); prefer Drain for graceful
// shutdown. With a journal configured a hard stop is the crash-consistency
// path: killed jobs keep their accepted/running journal entries and the
// next New with the same journal re-enqueues them.
func (s *Server) Start(ctx context.Context) {
	s.lifetime.Store(ctx)
	s.pool.start(ctx)
}

// Drain stops accepting new jobs and waits, bounded by ctx, until every
// queued job has run. In-flight synchronous requests complete because their
// queued tasks run to completion; call the HTTP server's Shutdown first so
// no new requests arrive, and cancel the Start context only after Drain
// returns — that ordering is what guarantees every queued async job either
// completes (journaled done/failed) or, if the drain deadline expires
// first, stays journaled as interrupted for the next process to pick up.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.drain(ctx)
}

// hardStopped reports whether err is the lifetime context's cancellation
// surfacing through a compile — the signature of a hard stop, where the
// right move is to leave the job un-acknowledged so recovery re-runs it.
func (s *Server) hardStopped(err error) bool {
	ctx, ok := s.lifetime.Load().(context.Context)
	return ok && ctx.Err() != nil && faults.IsCancellation(err)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// execute runs one compilation attempt on a worker goroutine and encodes
// the deterministic response payload. It is the only place compiles happen,
// so the compile counter equals cache misses plus retried attempts.
// Attempts below the task's injected fault budget fail with a transient
// fault instead of compiling (the chaos hook); successful attempts feed the
// admission controller's latency estimate.
func (s *Server) execute(ctx context.Context, ct *compileTask, attempt int) ([]byte, error) {
	if attempt < ct.faultAttempts {
		s.transients.Inc()
		return nil, faults.Transient(fmt.Sprintf("injected fault %d of %d", attempt+1, ct.faultAttempts), nil)
	}
	s.compiles.Inc()
	start := time.Now()
	if ct.opts.Partition.MaxQubitsPerPart > 0 {
		pres, err := tqec.CompilePartitionedContext(ctx, ct.circuit, ct.opts)
		elapsed := time.Since(start)
		s.compileHist.Observe(elapsed)
		if err != nil {
			return nil, err
		}
		s.observeCompileEWMA(elapsed)
		s.observeStages(pres.Breakdown)
		return EncodePartitionedResult(ct.key, ct.circuit.Name, ct.opts.Partition.MaxQubitsPerPart, pres)
	}
	res, err := tqec.CompileContext(ctx, ct.circuit, ct.opts)
	elapsed := time.Since(start)
	s.compileHist.Observe(elapsed)
	if err != nil {
		return nil, err
	}
	s.observeCompileEWMA(elapsed)
	s.observeStages(res.Breakdown)
	return EncodeResult(ct.key, res)
}

// observeStages records the time of every stage the compile ran in that
// stage's latency histogram; a stage the compile skipped gets no sample.
func (s *Server) observeStages(b *metrics.Breakdown) {
	for _, stage := range b.Stages() {
		if hist, ok := s.stageHists[stage]; ok {
			hist.Observe(b.Get(stage))
		}
	}
}

// handleCompile serves POST /v1/compile: parse, content-address, coalesce
// through the cache, queue on miss, respond with the payload. Uncached
// requests pass the circuit breaker and admission gates first; cached ones
// bypass them, since serving a hit consumes no worker.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	ct, aerr := parseCompileRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), s.cfg.limits())
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	gated := false
	if _, ok := s.cache.Get(ct.key); !ok {
		if ae := s.gate(ct.timeout); ae != nil {
			s.writeError(w, ae)
			return
		}
		gated = true
	}
	ran := false
	body, outcome, err := s.cache.Do(r.Context(), ct.key, func() ([]byte, error) {
		return s.pool.run(ct.timeout, func(ctx context.Context) ([]byte, error) {
			ran = true
			return s.compileWithRetry(ctx, ct)
		})
	})
	if gated && !ran {
		// The breaker admitted this request (possibly as the half-open
		// probe) but the compile never ran under it — a race turned it
		// into a hit/shared flight, or the queue rejected it. Release the
		// probe slot so the breaker cannot wedge.
		s.breaker.Abandon()
	}
	if err != nil {
		s.writeError(w, compileError(err))
		return
	}
	w.Header().Set("X-Tqecd-Cache", outcome.String())
	w.Header().Set("X-Tqecd-Cache-Key", ct.key)
	s.writeBody(w, http.StatusOK, body)
}

// handleJobSubmit serves POST /v1/jobs: journal the acceptance, register a
// job, enqueue its compile, respond 202 with the job ID (200 immediately on
// a cache hit). With a journal configured the 202 is a durability promise —
// the accepted event (request bytes included) is fsync'd before the
// response, so a crash after acknowledgement cannot lose the job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, badRequest(fmt.Sprintf("invalid request body: %v", err)))
		return
	}
	ct, aerr := parseCompileRequest(bytes.NewReader(raw), s.cfg.limits())
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	if body, ok := s.cache.Get(ct.key); ok {
		j := s.jobs.add(ct.key)
		if ae := s.journalAccepted(j, raw); ae != nil {
			s.writeError(w, ae)
			return
		}
		s.jobsSubmitted.Inc()
		j.finish(body, ccache.Hit, nil)
		s.journalFinish(j, body, ccache.Hit, nil)
		s.writeJSON(w, http.StatusOK, j.view())
		return
	}
	if ae := s.gate(ct.timeout); ae != nil {
		s.writeError(w, ae)
		return
	}
	j := s.jobs.add(ct.key)
	if ae := s.journalAccepted(j, raw); ae != nil {
		s.breaker.Abandon()
		s.writeError(w, ae)
		return
	}
	if ae := s.enqueueJob(j, ct); ae != nil {
		s.breaker.Abandon()
		s.writeError(w, ae)
		return
	}
	s.jobsSubmitted.Inc()
	s.writeJSON(w, http.StatusAccepted, j.view())
}

// enqueueJob queues the compile for an accepted async job. On queue
// rejection the job fails immediately (journaled, pollable). Shared by the
// submit handler and crash recovery.
func (s *Server) enqueueJob(j *job, ct *compileTask) *apiError {
	t := &task{timeout: ct.timeout, f: func(ctx context.Context) ([]byte, error) {
		j.setRunning()
		s.journalAppend(journal.Event{Kind: journal.KindRunning, JobID: j.id})
		body, outcome, err := s.cache.Do(ctx, ct.key, func() ([]byte, error) {
			return s.compileWithRetry(ctx, ct)
		})
		if err != nil {
			if s.hardStopped(err) {
				// The process is going down, not the job: leave it
				// un-acknowledged so recovery re-enqueues it instead of
				// recording a failure the job never earned.
				return nil, err
			}
			s.errorsTotal.Inc()
			ae := compileError(err)
			j.finish(nil, outcome, ae)
			s.journalFinish(j, nil, outcome, ae)
			return nil, err
		}
		j.finish(body, outcome, nil)
		s.journalFinish(j, body, outcome, nil)
		return body, nil
	}}
	if err := s.pool.enqueue(t); err != nil {
		ae := compileError(err)
		j.finish(nil, ccache.Miss, ae)
		s.journalFinish(j, nil, ccache.Miss, ae)
		return ae
	}
	return nil
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &apiError{Status: http.StatusNotFound,
			Body: ErrorBody{Message: fmt.Sprintf("unknown job %q", r.PathValue("id"))}})
		return
	}
	s.writeJSON(w, http.StatusOK, j.view())
}

// ServerStats are the request-level counters of MetricsSnapshot.
type ServerStats struct {
	// Requests counts every handled API request.
	Requests int64 `json:"requests"`
	// Compiles counts pipeline executions (equals cache misses).
	Compiles int64 `json:"compiles"`
	// Errors counts requests answered with an error body.
	Errors int64 `json:"errors"`
	// Rejected counts 429 overload responses.
	Rejected int64 `json:"rejected"`
	// WriteErrors counts response writes that failed mid-flight.
	WriteErrors int64 `json:"write_errors"`
}

// QueueStats are the worker-pool gauges of MetricsSnapshot.
type QueueStats struct {
	// Depth is the current queue occupancy.
	Depth int `json:"depth"`
	// Capacity is the queue bound.
	Capacity int `json:"capacity"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Busy is the number of workers executing right now.
	Busy int64 `json:"busy"`
}

// JobsStats are the async-job counters of MetricsSnapshot.
type JobsStats struct {
	// Submitted counts accepted job submissions.
	Submitted int64 `json:"submitted"`
	// Queued is the number of registered jobs awaiting a worker.
	Queued int `json:"queued"`
	// Running is the number of jobs being compiled.
	Running int `json:"running"`
	// Done is the number of retained finished jobs.
	Done int `json:"done"`
	// Failed is the number of retained failed jobs.
	Failed int `json:"failed"`
	// Evicted counts finished jobs dropped by TTL or max-entries
	// eviction.
	Evicted int64 `json:"evicted"`
}

// ResilienceStats are the retry/breaker/admission counters of
// MetricsSnapshot.
type ResilienceStats struct {
	// Retries counts scheduled compile retries.
	Retries int64 `json:"retries"`
	// TransientFaults counts injected transient faults (chaos hook).
	TransientFaults int64 `json:"transient_faults"`
	// BreakerState is the circuit breaker's current mode.
	BreakerState string `json:"breaker_state"`
	// BreakerTrips counts closed-to-open transitions.
	BreakerTrips int64 `json:"breaker_trips"`
	// AdmissionRejected counts requests rejected on arrival by the
	// deadline-aware admission controller.
	AdmissionRejected int64 `json:"admission_rejected"`
	// CompileEWMANS is the admission controller's latency estimate.
	CompileEWMANS int64 `json:"compile_ewma_ns"`
}

// JournalStats are the durability counters of MetricsSnapshot, present only
// when a journal is configured.
type JournalStats struct {
	journal.Stats
	// AppendErrors counts journal appends that failed.
	AppendErrors int64 `json:"append_errors"`
	// RecoveredInterrupted counts jobs re-enqueued by crash recovery.
	RecoveredInterrupted int64 `json:"recovered_interrupted"`
	// RecoveredFinished counts terminal jobs restored by crash recovery.
	RecoveredFinished int64 `json:"recovered_finished"`
}

// MetricsSnapshot is the JSON body of GET /v1/metrics.
type MetricsSnapshot struct {
	// Server holds request-level counters.
	Server ServerStats `json:"server"`
	// Queue holds worker-pool gauges.
	Queue QueueStats `json:"queue"`
	// Jobs holds async-job counters.
	Jobs JobsStats `json:"jobs"`
	// Cache holds the result-cache counters.
	Cache ccache.Stats `json:"cache"`
	// Resilience holds retry, breaker and admission counters.
	Resilience ResilienceStats `json:"resilience"`
	// Journal holds durability counters when a journal is configured.
	Journal *JournalStats `json:"journal,omitempty"`
	// LatencyNS holds latency histograms keyed by metric name:
	// "queue_wait", "compile", and "stage:<pipeline stage>".
	LatencyNS map[string]metrics.HistogramSnapshot `json:"latency_ns"`
}

// snapshot assembles the current metrics.
func (s *Server) snapshot() MetricsSnapshot {
	depth, capacity := s.pool.depth()
	queued, running, done, failed := s.jobs.counts()
	snap := MetricsSnapshot{
		Server: ServerStats{
			Requests:    s.requests.Value(),
			Compiles:    s.compiles.Value(),
			Errors:      s.errorsTotal.Value(),
			Rejected:    s.rejected.Value(),
			WriteErrors: s.writeErrors.Value(),
		},
		Queue: QueueStats{
			Depth:    depth,
			Capacity: capacity,
			Workers:  s.cfg.Workers,
			Busy:     s.pool.busy.Value(),
		},
		Jobs: JobsStats{
			Submitted: s.jobsSubmitted.Value(),
			Queued:    queued,
			Running:   running,
			Done:      done,
			Failed:    failed,
			Evicted:   s.jobs.evictions(),
		},
		Cache: s.cache.Stats(),
		Resilience: ResilienceStats{
			Retries:           s.retries.Value(),
			TransientFaults:   s.transients.Value(),
			BreakerState:      s.breaker.State().String(),
			BreakerTrips:      s.breaker.Trips(),
			AdmissionRejected: s.admissionRej.Value(),
			CompileEWMANS:     s.compileEWMA.Load(),
		},
		LatencyNS: map[string]metrics.HistogramSnapshot{
			"queue_wait": s.pool.wait.Snapshot(),
			"compile":    s.compileHist.Snapshot(),
		},
	}
	if s.cfg.Journal != nil {
		snap.Journal = &JournalStats{
			Stats:                s.cfg.Journal.Stats(),
			AppendErrors:         s.journalErrs.Value(),
			RecoveredInterrupted: s.recInterrupt,
			RecoveredFinished:    s.recFinished,
		}
	}
	for stage, hist := range s.stageHists {
		snap.LatencyNS["stage:"+stage] = hist.Snapshot()
	}
	return snap
}

// handleMetrics serves GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.snapshot())
}

// HealthBody is the JSON body of GET /healthz.
type HealthBody struct {
	// Status is "ok" while serving and "draining" after Drain began.
	Status string `json:"status"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// QueueDepth is the current queue occupancy.
	QueueDepth int `json:"queue_depth"`
	// QueueCapacity is the queue bound.
	QueueCapacity int `json:"queue_capacity"`
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.pool.depth()
	h := HealthBody{Status: "ok", Workers: s.cfg.Workers, QueueDepth: depth, QueueCapacity: capacity}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// writeError emits a structured error response, stamping 429s with the
// queue-depth headers the issue of backpressure calls for and backoff
// rejections with a Retry-After hint (whole seconds, rounded up). Every
// 429/503 carries the header, clamped to at least one second: RFC 9110
// clients treat Retry-After: 0 as "retry immediately", so a sub-second (or
// absent) estimate on a shed response would invite an instant hammer of
// the very queue or breaker that is shedding load.
func (s *Server) writeError(w http.ResponseWriter, ae *apiError) {
	s.errorsTotal.Inc()
	if ae.Status == http.StatusTooManyRequests {
		s.rejected.Inc()
		depth, capacity := s.pool.depth()
		w.Header().Set("X-Tqecd-Queue-Depth", strconv.Itoa(depth))
		w.Header().Set("X-Tqecd-Queue-Capacity", strconv.Itoa(capacity))
	}
	if ae.RetryAfter > 0 || ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable {
		secs := int64((ae.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, ae.Status, ErrorResponse{Error: ae.Body})
}

// writeJSON marshals v and writes it with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Marshaling our own response types cannot fail; if it somehow
		// does, serve a minimal 500 rather than a broken body.
		http.Error(w, `{"error":{"message":"response encoding failed"}}`, http.StatusInternalServerError)
		s.writeErrors.Inc()
		return
	}
	s.writeBody(w, code, b)
}

// writeBody writes a pre-encoded JSON payload. A failed write (client gone
// mid-response) is counted; there is no one left to report it to.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.writeErrors.Inc()
	}
}
