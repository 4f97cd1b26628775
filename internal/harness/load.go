package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ErrJobEvicted marks an async job the registry evicted (TTL or capacity
// pressure) between submission and the poll that would have read its
// terminal state. It is a distinct outcome, not a transport failure: the
// job may well have finished, but its result is gone. Detect it with
// errors.Is on LoadResult.Err.
var ErrJobEvicted = errors.New("job evicted before poll observed a terminal state")

// LoadOptions configures RunLoad, the concurrent load generator for a tqecd
// compile service.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// Client performs the requests (nil = http.DefaultClient).
	Client *http.Client
	// Bodies holds one JSON compile-request body per request to fire.
	// Duplicates are how cache and single-flight behaviour get exercised.
	Bodies [][]byte
	// Concurrency is the number of in-flight requests (0 = 8).
	Concurrency int
	// Async routes requests through POST /v1/jobs plus polling instead of
	// the synchronous POST /v1/compile endpoint.
	Async bool
	// PollInterval is the async polling cadence (0 = 5ms).
	PollInterval time.Duration
}

// LoadResult records the terminal outcome of one generated request.
type LoadResult struct {
	// Index is the request's position in LoadOptions.Bodies.
	Index int
	// Status is the final HTTP status (for async runs, the submit status;
	// job failures keep 202 and surface through ErrorBody).
	Status int
	// Cache is the reported cache outcome (hit/miss/shared), empty on
	// failure.
	Cache string
	// Key is the content address the server reported, when available.
	Key string
	// JobID is the async job ID the server assigned (empty for sync runs
	// and rejected submissions); crash-recovery tests use it to poll jobs
	// across a server restart.
	JobID string
	// Body is the raw success payload (the compile result JSON).
	Body []byte
	// ErrorBody is the raw structured error payload, when the request
	// failed with a JSON error.
	ErrorBody []byte
	// Err is a transport or protocol failure (nil for clean HTTP
	// exchanges, including 4xx/5xx ones).
	Err error
}

// loadJobView mirrors the subset of the server's job view the generator
// needs; declared locally so the harness stays decoupled from the server
// package.
type loadJobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Key    string          `json:"key"`
	Cache  string          `json:"cache"`
	Result json.RawMessage `json:"result"`
	Error  json.RawMessage `json:"error"`
}

// RunLoad fires every body in opts.Bodies at the server with bounded
// concurrency and returns one LoadResult per body, index-aligned. Transport
// errors are recorded per request, not returned: the only error return is a
// configuration problem or a canceled context.
func RunLoad(ctx context.Context, opts LoadOptions) ([]LoadResult, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("load: BaseURL required")
	}
	if len(opts.Bodies) == 0 {
		return nil, errors.New("load: no request bodies")
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 8
	}
	if conc > len(opts.Bodies) {
		conc = len(opts.Bodies)
	}
	poll := opts.PollInterval
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}

	results := make([]LoadResult, len(opts.Bodies))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := &results[i]
				r.Index = i
				body := opts.Bodies[i]
				if opts.Async {
					runAsync(ctx, client, opts.BaseURL, body, poll, r)
				} else {
					runSync(ctx, client, opts.BaseURL, body, r)
				}
			}
		}()
	}
feed:
	for i := range opts.Bodies {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	return results, ctx.Err()
}

// postJSON posts body and returns the status, response headers and payload.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, payload, err
}

// getJSON fetches url and returns the status and payload.
func getJSON(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, payload, err
}

// runSync drives one request through POST /v1/compile.
func runSync(ctx context.Context, client *http.Client, base string, body []byte, r *LoadResult) {
	status, hdr, payload, err := postJSON(ctx, client, base+"/v1/compile", body)
	if err != nil {
		r.Err = err
		return
	}
	r.Status = status
	r.Key = hdr.Get("X-Tqecd-Cache-Key")
	if status == http.StatusOK {
		r.Cache = hdr.Get("X-Tqecd-Cache")
		r.Body = payload
		return
	}
	r.ErrorBody = payload
}

// runAsync drives one request through POST /v1/jobs and polls the job to a
// terminal state.
func runAsync(ctx context.Context, client *http.Client, base string, body []byte, poll time.Duration, r *LoadResult) {
	status, _, payload, err := postJSON(ctx, client, base+"/v1/jobs", body)
	if err != nil {
		r.Err = err
		return
	}
	r.Status = status
	if status != http.StatusAccepted && status != http.StatusOK {
		r.ErrorBody = payload
		return
	}
	var v loadJobView
	if err := json.Unmarshal(payload, &v); err != nil {
		r.Err = fmt.Errorf("job submit body: %w", err)
		return
	}
	r.JobID = v.ID
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for v.Status != "done" && v.Status != "failed" {
		select {
		case <-ctx.Done():
			r.Err = ctx.Err()
			return
		case <-ticker.C:
		}
		st, payload, err := getJSON(ctx, client, base+"/v1/jobs/"+v.ID)
		if err != nil {
			r.Err = err
			return
		}
		if st == http.StatusNotFound {
			// The job existed a moment ago — we submitted it — so a 404
			// mid-poll means the registry evicted it (TTL or capacity)
			// before we observed the terminal state. Surface that as its
			// own outcome rather than a generic poll failure: callers
			// treating any non-200 as "server broke" would misdiagnose a
			// registry sized below the polling cadence.
			r.Err = fmt.Errorf("job %s: %w", v.ID, ErrJobEvicted)
			return
		}
		if st != http.StatusOK {
			r.Err = fmt.Errorf("job poll status %d: %s", st, payload)
			return
		}
		if err := json.Unmarshal(payload, &v); err != nil {
			r.Err = fmt.Errorf("job poll body: %w", err)
			return
		}
	}
	r.Key = v.Key
	if v.Status == "done" {
		r.Cache = v.Cache
		r.Body = v.Result
		return
	}
	r.ErrorBody = v.Error
}
