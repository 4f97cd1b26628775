package harness

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// ChaosPlan drives deterministic service-level fault injection against a
// tqecd instance: synthetic 5xx bursts, slow responses, periodic "process
// crashes" (the test wires Crash to a Server stop/recover cycle) and
// periodic durable-state corruption (Corrupt, typically a garbage tail
// appended to the newest journal segment between close and reopen). The
// plan exposes the same decision stream through two shapes — an HTTP
// middleware for the server side and an http.RoundTripper for the client
// side — so a soak test can install whichever layer a fault belongs to.
// All decisions derive from Seed and a request counter, so a given plan
// replays the same fault schedule on every run. The zero value injects
// nothing.
type ChaosPlan struct {
	// Seed drives every probabilistic decision; two plans with the same
	// seed and knobs fire the same schedule.
	Seed uint64

	// ErrorFraction is the per-request probability of starting a
	// synthetic outage: the request (and the next BurstLen-1) are
	// answered 503 without reaching the wrapped handler or transport.
	ErrorFraction float64
	// BurstLen is the number of consecutive requests one outage sheds
	// (0 = 1).
	BurstLen int

	// SlowFraction is the per-request probability of delaying a forwarded
	// request by SlowDelay (context-aware; a canceled request stops
	// waiting).
	SlowFraction float64
	// SlowDelay is the injected latency for slow requests.
	SlowDelay time.Duration

	// CrashEvery fires Crash after every Nth request (0 = never).
	CrashEvery int
	// Crash simulates a process death; the soak test wires it to
	// hard-stop the current server, reopen the journal and swap a
	// recovered instance in. Called from the request path, so it must be
	// safe under concurrency.
	Crash func()

	// CorruptEvery fires Corrupt after every Nth request (0 = never).
	CorruptEvery int
	// Corrupt injects durable-state damage; the soak test arms a flag the
	// next crash cycle consumes to scribble on the journal while it is
	// closed.
	Corrupt func()

	disabled  atomic.Bool
	reqs      atomic.Uint64
	burstLeft atomic.Int64

	shed        atomic.Uint64
	delayed     atomic.Uint64
	crashes     atomic.Uint64
	corruptions atomic.Uint64
}

// ChaosStats counts what a plan actually injected, so tests can assert the
// chaos was real rather than a schedule that silently never fired.
type ChaosStats struct {
	// Requests is the number of requests the plan decided on.
	Requests uint64 `json:"requests"`
	// Shed counts synthetic 503 responses.
	Shed uint64 `json:"shed"`
	// Delayed counts requests slowed by SlowDelay.
	Delayed uint64 `json:"delayed"`
	// Crashes counts Crash invocations.
	Crashes uint64 `json:"crashes"`
	// Corruptions counts Corrupt invocations.
	Corruptions uint64 `json:"corruptions"`
}

// Stats snapshots the injection counters.
func (p *ChaosPlan) Stats() ChaosStats {
	return ChaosStats{
		Requests:    p.reqs.Load(),
		Shed:        p.shed.Load(),
		Delayed:     p.delayed.Load(),
		Crashes:     p.crashes.Load(),
		Corruptions: p.corruptions.Load(),
	}
}

// chaosDecision is one request's fault assignment.
type chaosDecision struct {
	shed    bool
	slow    bool
	crash   bool
	corrupt bool
}

// chaosMix is the splitmix64 finalizer, the same generator the placement
// stage uses for decorrelated deterministic streams.
func chaosMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4b33a2af89d25
	return z ^ (z >> 31)
}

// chaosFrac maps a mixed word onto [0, 1).
func chaosFrac(r uint64) float64 {
	return float64(r>>11) / float64(uint64(1)<<53)
}

// Disable turns all injection off: subsequent requests pass through
// untouched. Soak tests call it before their verification phase, so the
// accounting runs against a quiesced service.
func (p *ChaosPlan) Disable() {
	p.disabled.Store(true)
}

// step assigns the next request its faults. The counter is shared between
// the middleware and the transport, so installing both interleaves one
// decision stream rather than doubling every fault.
func (p *ChaosPlan) step() chaosDecision {
	var d chaosDecision
	if p.disabled.Load() {
		return d
	}
	n := p.reqs.Add(1)
	// An in-progress outage sheds first, independent of the dice.
	if p.burstLeft.Load() > 0 && p.burstLeft.Add(-1) >= 0 {
		d.shed = true
	} else if r := chaosMix(p.Seed + 2*n); chaosFrac(r) < p.ErrorFraction {
		d.shed = true
		if p.BurstLen > 1 {
			p.burstLeft.Store(int64(p.BurstLen - 1))
		}
	}
	if r := chaosMix(p.Seed + 2*n + 1); chaosFrac(r) < p.SlowFraction {
		d.slow = true
	}
	if p.CrashEvery > 0 && n%uint64(p.CrashEvery) == 0 {
		d.crash = true
	}
	if p.CorruptEvery > 0 && n%uint64(p.CorruptEvery) == 0 {
		d.corrupt = true
	}
	return d
}

// fire runs the side-effect hooks for a decision (crash/corrupt) and
// counts what actually happened.
func (p *ChaosPlan) fire(d chaosDecision) {
	if d.corrupt && p.Corrupt != nil {
		p.corruptions.Add(1)
		p.Corrupt()
	}
	if d.crash && p.Crash != nil {
		p.crashes.Add(1)
		p.Crash()
	}
}

// sleep waits for SlowDelay or the request's cancellation, whichever comes
// first.
func (p *ChaosPlan) sleep(done <-chan struct{}) {
	if p.SlowDelay <= 0 {
		return
	}
	t := time.NewTimer(p.SlowDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// chaosErrorBody is the structured 503 payload synthetic outages serve; it
// mirrors the server's error envelope so load clients parse it uniformly.
const chaosErrorBody = `{"error":{"message":"chaos: injected outage","sentinel":"chaos"}}`

// Middleware wraps a handler with server-side injection: synthetic 503
// bursts and slow responses happen before the request reaches next, and
// crash/corrupt hooks fire on their schedule.
func (p *ChaosPlan) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := p.step()
		p.fire(d)
		if d.slow {
			p.delayed.Add(1)
			p.sleep(r.Context().Done())
		}
		if d.shed {
			p.shed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			if _, err := io.WriteString(w, chaosErrorBody); err != nil {
				return
			}
			return
		}
		next.ServeHTTP(w, r)
	})
}

// RoundTripper wraps a transport with client-side injection of the same
// decision stream: shed requests are answered with a synthetic 503 without
// touching the network (a simulated outage between client and server), slow
// requests wait before being sent, and the crash/corrupt hooks fire on
// their schedule. A nil next wraps http.DefaultTransport.
func (p *ChaosPlan) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &chaosTransport{plan: p, next: next}
}

// chaosTransport is the RoundTripper shape of a ChaosPlan.
type chaosTransport struct {
	plan *ChaosPlan
	next http.RoundTripper
}

// RoundTrip applies the plan's next decision to one outgoing request.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.plan
	d := p.step()
	p.fire(d)
	if d.slow {
		p.delayed.Add(1)
		p.sleep(req.Context().Done())
	}
	if d.shed {
		p.shed.Add(1)
		body := []byte(chaosErrorBody)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return t.next.RoundTrip(req)
}
