package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall drives a server that stalls once for 500 ms:
// requests due during the stall must have latencies that include the rest
// of the stall, the generator must still send on schedule, and it must
// open at most runtime.NumCPU() connections.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 500 * time.Millisecond
	var (
		mu                   sync.Mutex
		arrived              atomic.Int32
		conns                atomic.Int32
		stallStart, stallEnd time.Time
	)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if arrived.Add(1) == 10 {
			stallStart = time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		mu.Unlock()
		w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := newClient(runtime.NumCPU())
	defer client.CloseIdleConnections()
	const n = 60
	errs := make([]error, n)
	ls := openLoop(context.Background(), n, 20*time.Millisecond, 5*time.Second, func(ctx context.Context, i int) {
		_, _, _, errs[i] = do(ctx, client, http.MethodGet, srv.URL, nil)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mu.Lock()
	start, end := stallStart, stallEnd
	mu.Unlock()
	if start.IsZero() {
		t.Fatal("the server never stalled")
	}
	charged := 0
	for i, due := range ls.due {
		if due.Before(start) || !due.Before(end.Add(-50*time.Millisecond)) {
			continue
		}
		charged++
		if want := end.Sub(due) - 5*time.Millisecond; ls.lat[i] < want {
			t.Errorf("request %d due %s into the stall took %s, want at least %s", i, due.Sub(start), ls.lat[i], want)
		}
	}
	if charged < 10 {
		t.Errorf("only %d requests fell due during the stall", charged)
	}
	if ls.lateMax <= 0 || ls.lateMax > 50*time.Millisecond {
		t.Errorf("generator lateness %s: want reported and under 50ms, the stall must not hold up sends", ls.lateMax)
	}
	if c := int(conns.Load()); c > runtime.NumCPU() {
		t.Errorf("opened %d connections, want at most %d", c, runtime.NumCPU())
	}
}
