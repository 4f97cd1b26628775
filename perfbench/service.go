package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/qc"
	"repro/internal/server"
)

// The service-hot workload: hotRounds times, a fresh tqecd that compiles
// hotKeys circuits, then one closed-loop client asking it for them again
// through synchronous POST /v1/compile, keys drawn Zipf(hotZipf).
const (
	hotKeys = 16
	hotZipf = 1.1
	// hotRounds is how many daemons a run sets up and measures.
	hotRounds = 5
	// hotSLO is the latency limit slo_miss_share counts against.
	hotSLO = 25 * time.Millisecond
)

// hotArgs size the daemon: two workers and the default cache, which holds
// every key.
var hotArgs = []string{"-workers", "2"}

// The service-cold workload: a fresh tqecd per set-up, warmed with
// coldWarmBodies, then an open loop at coldRate requests per second of
// asynchronous jobs, each a circuit the daemon has not seen.
const (
	coldRate = 5.0
	// coldSLO is the latency limit slo_miss_share counts against.
	coldSLO = 2 * time.Second
	// coldGrace is how long requests may stay outstanding after the last
	// one was due.
	coldGrace = 15 * time.Second
	// coldCheckEvery: every this many requests, the served bytes are
	// compared with a child compile's.
	coldCheckEvery = 10
)

// coldArgs size the daemon: two workers, a cache of about ten payloads so
// that once it fills every insert evicts, and a compile deadline.
var coldArgs = []string{"-workers", "2", "-cache-bytes", "8192", "-timeout", "10s"}

// reply is one served payload and how the cache produced it.
type reply struct {
	payload []byte
	cache   string
	err     string
}

// payloadHead is the part of a compile payload the benchmark reads.
type payloadHead struct {
	Key         string  `json:"key"`
	Volume      int     `json:"volume"`
	Compression float64 `json:"compression_ratio"`
}

// serviceInputs renders circuits picked from serviceUniverse as jobs,
// with their content addresses and request bodies.
func serviceInputs(cs []*qc.Circuit) (jobs []job, keys []string, bodies [][]byte, err error) {
	if jobs, err = newJobs(cs, 1, 0); err != nil {
		return nil, nil, nil, err
	}
	keys = make([]string, len(cs))
	bodies = make([][]byte, len(cs))
	for i, j := range jobs {
		if keys[i], err = j.key(); err != nil {
			return nil, nil, nil, err
		}
		if bodies[i], err = requestBody(j); err != nil {
			return nil, nil, nil, err
		}
	}
	return jobs, keys, bodies, nil
}

// coldWarmBodies are service-cold's warm-up requests: the two paper
// benchmarks of compile-mix, the same on every seed, so the warm-up costs
// the same on every seed too.
func coldWarmBodies() ([][]byte, error) {
	cs, err := paperCircuits(2)
	if err != nil {
		return nil, err
	}
	jobs, err := newJobs(cs, 1, 0)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(jobs))
	for i, j := range jobs {
		if bodies[i], err = requestBody(j); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// setUpDaemon starts a fresh daemon and warms it setupRuns times, keeping
// the last one running, and returns it with the set-up times.
func setUpDaemon(cfg *config, args []string, warm func(url string) error) (*daemon, []float64, error) {
	var d *daemon
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg, args); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warm(d.url); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return d, setups, nil
}

// runHot measures service-hot. Each of its hotRounds set-ups starts a
// fresh daemon and compiles the keys, and then that daemon serves its
// share of the window; the latencies of all shares are pooled.
//
// A hit costs the daemon about a millisecond of CPU, much of it garbage
// collection, which runs beside the request on the other CPU: a hit
// allocates about 1.4 MB, so with the 4 MB minimum heap goal the daemon
// collects after every second request. With two
// clients the loop kept both CPUs busy, so any other load on the host
// delayed requests by whole time slices: a second process spinning on one
// CPU tripled p90 and moved p50 by half, and runs of the same inputs on a
// shared host spread by a quarter at p90. With one client the same spinning
// process left p50 unchanged. What one client is left with is that a
// daemon keeps the hit cost it starts with, and daemons of the same build
// differed by up to a third; pooling five averages that out.
func runHot(ctx context.Context, cfg *config) (*result, error) {
	nkeys := hotKeys
	if cfg.inputs > 0 {
		nkeys = cfg.inputs
	}
	// The keys stay in stratum order, so Zipf rank k is a circuit of the
	// same gate profile on every seed. A hit costs more the more gates its
	// circuit has, as tqec.CacheKey decomposes them; in golden-ratio order
	// the seed chose how costly the most requested keys were, which moved
	// both latencies by a tenth between seeds.
	cs, err := serviceUniverse.ranked(cfg.seed, nkeys)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	jobs, keys, bodies, err := serviceInputs(cs)
	if err != nil {
		return nil, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	zipf := rand.NewZipf(rand.New(rand.NewSource(drawSeed(cfg.seed, "hot-load", 0))), hotZipf, 1, uint64(nkeys-1))

	type request struct {
		key        int
		start      time.Time
		lat        time.Duration
		cache, err string
		// wrong marks a served payload that differs from the key's.
		wrong bool
	}
	r := &result{correct: true}
	var want [][]byte
	var setups, rss []float64
	var windows []serverWindow
	// sent[i] are the requests daemon i served.
	sent := make([][]request, hotRounds)
	share := time.Duration(cfg.seconds) * time.Second / hotRounds
	round := func(i int) error {
		start := time.Now()
		d, err := startDaemon(cfg, hotArgs)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		defer d.stop()
		payloads, err := compileAll(ctx, client, d.url, bodies)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if want == nil {
			want = payloads
		} else if !slices.EqualFunc(want, payloads, bytes.Equal) {
			r.correct = false
			r.notef("set-up %d compiled the keys to other bytes than set-up 1", i+1)
		}
		var w serverWindow
		if w.before, err = fetchMetrics(ctx, client, d.url); err != nil {
			return err
		}
		if i == 0 {
			r.spans.t0 = time.Now()
		}
		for end := time.Now().Add(share); time.Now().Before(end); {
			k := int(zipf.Uint64())
			start := time.Now()
			rp := compileSync(ctx, client, d.url, bodies[k])
			q := request{key: k, start: start, lat: time.Since(start), cache: rp.cache, err: rp.err}
			if q.err == "" && !bytes.Equal(rp.payload, want[k]) {
				q.err, q.wrong = "payload differs from the set-up compile of the same circuit", true
			}
			sent[i] = append(sent[i], q)
		}
		if w.after, err = fetchMetrics(ctx, client, d.url); err != nil {
			return err
		}
		windows = append(windows, w)
		mb, err := d.stop()
		rss = append(rss, mb)
		return err
	}
	for i := range sent {
		if err := round(i); err != nil {
			return nil, err
		}
	}

	var lat, hits, misses []float64
	sloMiss := 0
	for i, qs := range sent {
		for n, q := range qs {
			r.attempted++
			if cfg.trace {
				r.spans.add(fmt.Sprintf("req-%d-%d", i, n), "request", q.cache+q.err, q.start, q.start.Add(q.lat), 0)
			}
			if q.err != "" {
				if q.wrong {
					r.correct = false
				}
				r.fail("request %d to daemon %d (%s): %s", n, i+1, jobs[q.key].Name, q.err)
				sloMiss++
				continue
			}
			l := q.lat.Seconds()
			lat = append(lat, l)
			if q.cache == "hit" {
				hits = append(hits, l)
			} else {
				misses = append(misses, l)
			}
			if q.lat > hotSLO {
				sloMiss++
			}
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	r.notef("workload %s: %d requests over %d keys from one closed-loop client, %s on each of %d daemons, %d failed (failed_share %.4f), slo_miss_share %.4f (limit %s)",
		cfg.workload, r.attempted, nkeys, share, hotRounds, r.failed, float64(r.failed)/float64(r.attempted), float64(sloMiss)/float64(r.attempted), hotSLO)
	r.notef("completed_rps = %.6g 1/s", float64(len(lat))/(share*hotRounds).Seconds())
	r.notef("http.hit_p50_s = %.6g s (n=%d), http.miss_p50_s = %.6g s (n=%d)", quantile(hits, 0.5), len(hits), quantile(misses, 0.5), len(misses))
	serverNotes(r, windows)
	if err := checkService(ctx, cfg, r, jobs, keys, want, 1, setups, lat, quantile(rss, 0.5), fmt.Sprintf("median tqecd ru_maxrss at exit of %d daemons", len(rss))); err != nil {
		return nil, err
	}
	return r, nil
}

// runCold measures service-cold.
func runCold(ctx context.Context, cfg *config) (*result, error) {
	rate := coldRate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	n := max(1, int(rate*float64(cfg.seconds)+0.5))
	cs, err := serviceUniverse.pick(cfg.seed, n)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	jobs, keys, bodies, err := serviceInputs(cs)
	if err != nil {
		return nil, err
	}
	warm, err := coldWarmBodies()
	if err != nil {
		return nil, err
	}

	client := newClient(runtime.NumCPU())
	defer client.CloseIdleConnections()
	d, setups, err := setUpDaemon(cfg, coldArgs, func(url string) error {
		_, err := compileAll(ctx, client, url, warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	r := &result{correct: true}
	before, err := fetchMetrics(ctx, client, d.url)
	if err != nil {
		return nil, err
	}
	replies := make([]reply, n)
	r.spans.t0 = time.Now()
	ls := openLoop(ctx, n, time.Duration(float64(time.Second)/rate), coldGrace, func(ctx context.Context, i int) {
		replies[i] = submitAndPoll(ctx, client, d.url, bodies[i])
	})
	after, err := fetchMetrics(ctx, client, d.url)
	if err != nil {
		return nil, err
	}
	daemonRSS, err := d.stop()
	if err != nil {
		return nil, err
	}

	var lat []float64
	served := make([][]byte, n)
	sloMiss := 0
	for i, rp := range replies {
		r.attempted++
		if cfg.trace {
			r.spans.add(fmt.Sprintf("req-%d", i), "request", rp.cache+rp.err, ls.due[i], ls.due[i].Add(ls.lat[i]), 0)
		}
		if rp.err != "" {
			r.fail("request %d (%s): %s", i, jobs[i].Name, rp.err)
			sloMiss++
			continue
		}
		served[i] = rp.payload
		l := ls.lat[i].Seconds()
		lat = append(lat, l)
		if l > coldSLO.Seconds() {
			sloMiss++
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request of %d succeeded", n)
	}
	r.notef("workload %s: %d requests at %g/s over %d connections, %d failed (failed_share %.4f), slo_miss_share %.4f (limit %s)",
		cfg.workload, n, rate, runtime.NumCPU(), r.failed, float64(r.failed)/float64(n), float64(sloMiss)/float64(n), coldSLO)
	r.notef("completed_rps = %.6g 1/s", float64(len(lat))/(ls.due[n-1].Sub(ls.due[0]).Seconds()+ls.lat[n-1].Seconds()))
	r.notef("gen.late_max_s = %.6g s", ls.lateMax.Seconds())
	if ls.lateMax > 50*time.Millisecond {
		r.correct = false
		r.notef("invalid run: the generator fell %s behind schedule", ls.lateMax)
	}
	serverNotes(r, []serverWindow{{before, after}})
	if err := checkService(ctx, cfg, r, jobs, keys, served, coldCheckEvery, setups, lat, daemonRSS, "tqecd ru_maxrss at exit"); err != nil {
		return nil, err
	}
	return r, nil
}

// checkService ends a service run: it checks the payloads served (nil for
// a failed request), every every-th against a fresh compile in a child
// process, and fills r's metrics; daemonRSS is the measured daemons' peak
// resident set, taken as rssNote says.
func checkService(ctx context.Context, cfg *config, r *result, jobs []job, keys []string, payloads [][]byte, every int, setups, lat []float64, daemonRSS float64, rssNote string) error {
	vols, comps, err := payloadVolumes(r, keys, payloads)
	if err != nil {
		return err
	}
	var lay layers
	checked, err := checkServed(ctx, cfg, r, jobs, payloads, every, &lay)
	if err != nil {
		return err
	}
	if checked == 0 {
		return fmt.Errorf("no served payload was checked")
	}
	r.endToEnd = endToEndMetrics(setups, lat, vols, comps, daemonRSS, rssNote)
	if cfg.trace {
		r.perLayer = layerMetrics(&lay)
		layerNotes(r, &lay)
	}
	return nil
}

// payloadVolumes reads volume and compression from each served payload
// (nil for a failed request) and checks that it carries its content
// address.
func payloadVolumes(r *result, keys []string, payloads [][]byte) (vols, comps []float64, err error) {
	for i, p := range payloads {
		if p == nil {
			continue
		}
		var h payloadHead
		if err := json.Unmarshal(p, &h); err != nil {
			return nil, nil, fmt.Errorf("payload %d: %w", i, err)
		}
		if h.Key != keys[i] {
			r.correct = false
			r.notef("payload %d does not carry its content address", i)
		}
		vols, comps = append(vols, float64(h.Volume)), append(comps, h.Compression)
	}
	return vols, comps, nil
}

// checkServed compares every every-th served payload (nil for a failed
// request) with server.EncodeResult of a fresh compile of the same job in
// a child process and returns how many it compared; a traced run traces
// those compiles into lay.
func checkServed(ctx context.Context, cfg *config, r *result, jobs []job, payloads [][]byte, every int, lay *layers) (checked int, err error) {
	for i := 0; i < len(jobs); i += every {
		if payloads[i] == nil {
			continue
		}
		j := jobs[i]
		j.Trace = cfg.trace
		cr, err := runChild(ctx, cfg.self, modeCompile, j, cfg.killCap)
		if err != nil {
			return 0, err
		}
		checked++
		switch o := cr.out; {
		case cr.killed || o.Err != "":
			r.correct = false
			r.notef("check of %s: the reference compile failed (killed=%v) %s", j.Name, cr.killed, o.Err)
		case o.VerifyErr != "":
			r.correct = false
			r.notef("check of %s: %s", j.Name, o.VerifyErr)
		case o.Digest != digest(payloads[i]):
			r.correct = false
			r.notef("check of %s: served bytes differ from server.EncodeResult of a fresh compile", j.Name)
		}
		if cr.out.Layers != nil {
			lay.add(cr.out.Layers)
			r.spans.adopt("check-"+j.Name, "child", cr)
		}
	}
	return checked, nil
}

// serverWindow is a daemon's /v1/metrics before and after a measured
// window.
type serverWindow struct{ before, after *server.MetricsSnapshot }

// serverNotes reports the daemons' own counters, summed over their
// measured windows.
func serverNotes(r *result, windows []serverWindow) {
	hist := func(name string) (float64, int64) {
		var sum, n int64
		for _, w := range windows {
			a, b := w.after.LatencyNS[name], w.before.LatencyNS[name]
			sum, n = sum+a.SumNS-b.SumNS, n+a.Count-b.Count
		}
		return ratio(float64(sum)/1e9, float64(n)), n
	}
	var lookups, hits, evictions, rejected, retries int64
	for _, w := range windows {
		a, b := w.after, w.before
		lookups += a.Cache.Lookups - b.Cache.Lookups
		hits += a.Cache.Hits - b.Cache.Hits
		evictions += a.Cache.Evictions - b.Cache.Evictions
		rejected += a.Resilience.AdmissionRejected - b.Resilience.AdmissionRejected
		retries += a.Resilience.Retries - b.Resilience.Retries
	}
	qw, qn := hist("queue_wait")
	cm, cn := hist("compile")
	r.notef("server.queue_wait_mean_s = %.6g s (n=%d), server.compile_mean_s = %.6g s (n=%d)", qw, qn, cm, cn)
	r.notef("ccache.hit_ratio = %.6g (%d lookups), ccache.evictions = %d", ratio(float64(hits), float64(lookups)), lookups, evictions)
	r.notef("server.admission_rejected = %d, server.retries = %d", rejected, retries)
}

// requestBody is the tqecd request for a job.
func requestBody(j job) ([]byte, error) {
	return json.Marshal(server.CompileRequest{Real: j.Real, Name: j.Name,
		Options: server.CompileOptions{Seed: j.Seed, Chains: j.Chains, PartitionQubits: j.Cap}})
}

// compileAll sends the bodies through POST /v1/compile one at a time and
// returns the payloads in order. Sent at once, two compiles overlapped on
// the daemon's two workers by chance, and its peak resident set moved by
// a fifth between set-ups of the same keys; one at a time, by a twentieth.
func compileAll(ctx context.Context, client *http.Client, url string, bodies [][]byte) ([][]byte, error) {
	payloads := make([][]byte, len(bodies))
	for i, b := range bodies {
		rp := compileSync(ctx, client, url, b)
		if rp.err != "" {
			return nil, fmt.Errorf("compile %d: %s", i, rp.err)
		}
		payloads[i] = rp.payload
	}
	return payloads, nil
}

// compileSync is one POST /v1/compile.
func compileSync(ctx context.Context, client *http.Client, url string, body []byte) reply {
	status, hdr, payload, err := do(ctx, client, http.MethodPost, url+"/v1/compile", body)
	if err != nil {
		return reply{err: err.Error()}
	}
	if status != http.StatusOK {
		return reply{err: fmt.Sprintf("status %d: %s", status, payload)}
	}
	return reply{payload: payload, cache: hdr.Get("X-Tqecd-Cache")}
}

// pollInterval is how often an async client polls its job.
const pollInterval = 10 * time.Millisecond

// submitAndPoll is one POST /v1/jobs followed by GET /v1/jobs/{id} until
// the job finishes.
func submitAndPoll(ctx context.Context, client *http.Client, url string, body []byte) reply {
	status, _, payload, err := do(ctx, client, http.MethodPost, url+"/v1/jobs", body)
	for {
		if err != nil {
			return reply{err: err.Error()}
		}
		if status != http.StatusOK && status != http.StatusAccepted {
			return reply{err: fmt.Sprintf("status %d: %s", status, payload)}
		}
		var v server.JobView
		if err := json.Unmarshal(payload, &v); err != nil {
			return reply{err: fmt.Sprintf("job view: %v", err)}
		}
		switch v.Status {
		case server.JobDone:
			return reply{payload: v.Result, cache: v.Cache}
		case server.JobFailed:
			return reply{err: fmt.Sprintf("job failed: %+v", v.Error)}
		}
		t := time.NewTimer(pollInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return reply{err: "still outstanding when the grace period ended"}
		case <-t.C:
		}
		status, _, payload, err = do(ctx, client, http.MethodGet, url+"/v1/jobs/"+v.ID, nil)
	}
}

// do performs one HTTP exchange and reads the whole response.
func do(ctx context.Context, client *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// fetchMetrics reads /v1/metrics.
func fetchMetrics(ctx context.Context, client *http.Client, url string) (*server.MetricsSnapshot, error) {
	status, _, b, err := do(ctx, client, http.MethodGet, url+"/v1/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	var m server.MetricsSnapshot
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &m, nil
}

// daemon is a running tqecd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan error

	stopOnce sync.Once
	rssMB    float64
	stopErr  error
}

// startDaemon runs tqecd on a free loopback port and waits until /healthz
// answers 200.
func startDaemon(cfg *config, args []string) (*daemon, error) {
	lw := &listenWriter{w: cfg.log, addr: make(chan string, 1)}
	cmd := exec.Command(cfg.tqecd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = lw
	setDeathSignal(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tqecd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case addr := <-lw.addr:
		d.url = "http://" + addr
	case err := <-d.exited:
		return nil, fmt.Errorf("tqecd exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("tqecd did not listen within 10s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tqecd not healthy within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns,
// waits for it to exit and returns its peak resident set in MB. Calls
// after the first return the first call's outcome.
func (d *daemon) stop() (float64, error) {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		var err error
		select {
		case err = <-d.exited:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			err = <-d.exited
		}
		if err != nil {
			d.stopErr = fmt.Errorf("tqecd: %w", err)
			return
		}
		d.rssMB = maxRSSMB(d.cmd.ProcessState)
	})
	return d.rssMB, d.stopErr
}

// listenWriter passes the daemon's stderr through and picks the bound
// address out of its "listening on" line.
type listenWriter struct {
	w    io.Writer
	addr chan string // buffered; receives the first address only
	buf  []byte
}

func (lw *listenWriter) Write(p []byte) (int, error) {
	lw.w.Write(p)
	lw.buf = append(lw.buf, p...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(lw.buf[:i])
		lw.buf = lw.buf[i+1:]
		if _, addr, ok := strings.Cut(line, "listening on "); ok {
			select {
			case lw.addr <- strings.TrimSpace(addr):
			default:
			}
		}
	}
}
