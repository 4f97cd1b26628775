// Command tqecd serves the bridge-based compression pipeline over HTTP.
//
// Usage:
//
//	tqecd [-addr :8321] [-workers N] [-queue N] [-cache-bytes N]
//	      [-timeout 2m] [-max-timeout 10m] [-drain-timeout 30s]
//	      [-journal-dir DIR] [-journal-segment-bytes N]
//	      [-allow-fault-injection]
//
// Endpoints:
//
//	POST /v1/compile     synchronous compile (JSON in, JSON out)
//	POST /v1/jobs        submit an asynchronous compile job
//	GET  /v1/jobs/{id}   poll a job
//	GET  /v1/metrics     counters, gauges and latency histograms
//	GET  /healthz        liveness/readiness
//
// SIGINT/SIGTERM triggers a graceful drain: new work is rejected with 503
// while queued jobs finish, bounded by -drain-timeout.
//
// With -journal-dir set, async jobs are durable: every lifecycle event is
// fsync'd to a write-ahead log before it is acknowledged, and on restart
// the journal is replayed — interrupted jobs re-enqueue under their
// original IDs, finished jobs stay pollable with byte-identical results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", 0, "compile worker goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = default 64)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache budget in bytes (0 = default 64MiB, <0 disables)")
	timeout := flag.Duration("timeout", 0, "default per-compile deadline (0 = default 2m)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling on client-requested deadlines (0 = default 10m)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	journalDir := flag.String("journal-dir", "", "directory for the durable job journal (empty = in-memory jobs only)")
	journalSegBytes := flag.Int64("journal-segment-bytes", 0, "journal segment rotation threshold (0 = default 8MiB)")
	allowFaults := flag.Bool("allow-fault-injection", false, "admit the fault_attempts chaos hook in request options")
	partitionQubits := flag.Int("partition-qubits", 0, "default per-part qubit cap for partitioned compiles (0 = unpartitioned; requests may override)")
	flag.Parse()

	cfg := server.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheBytes:          *cacheBytes,
		PartitionQubits:     *partitionQubits,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		AllowFaultInjection: *allowFaults,
	}
	if err := run(*addr, cfg, *drainTimeout, *journalDir, *journalSegBytes); err != nil {
		fmt.Fprintln(os.Stderr, "tqecd:", err)
		os.Exit(1)
	}
}

// run wires the compile server into an http.Server and blocks until a
// termination signal completes the drain. With a journal directory it
// opens (and replays) the write-ahead log first and closes it after the
// drain, so every completed job's terminal event is on disk before exit.
func run(addr string, cfg server.Config, drainTimeout time.Duration, journalDir string, journalSegBytes int64) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var jnl *journal.Journal
	if journalDir != "" {
		var err error
		jnl, err = journal.Open(journalDir, journal.Options{SegmentBytes: journalSegBytes})
		if err != nil {
			return err
		}
		cfg.Journal = jnl
		if n := len(jnl.Recovered()); n > 0 {
			fmt.Fprintf(os.Stderr, "tqecd: journal replayed %d job(s) from %s\n", n, journalDir)
		}
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	s.Start(ctx)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "tqecd: listening on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintf(os.Stderr, "tqecd: draining (budget %s)\n", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Stop accepting connections and let in-flight requests finish, then
	// run the worker queue dry.
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := s.Drain(dctx); err != nil {
		return err
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "tqecd: drained cleanly")
	return nil
}
