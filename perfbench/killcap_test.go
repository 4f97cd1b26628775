package main

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/qc"
)

// blowupJob is a 5-qubit, 9-gate circuit on which the bridging path
// search runs for over twenty seconds and ignores cancellation.
func blowupJob(t *testing.T) job {
	t.Helper()
	b, err := os.ReadFile("testdata/bridge_blowup.real")
	if err != nil {
		t.Fatal(err)
	}
	return job{Name: "bridge_blowup", Real: string(b), Seed: compileSeed, Chains: 2}
}

// TestKillCapBoundsCompile runs the blowup circuit behind a 1 s cap (10 s
// under the race detector): its child must be killed, counted as failed,
// and the runner must return within the cap plus 2 s of the other compile.
func TestKillCapBoundsCompile(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt10-v1_81")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := newJob(c, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "compile-mix")
	cfg.killCap = capScale * time.Second

	start := time.Now()
	okRun, err := runChild(context.Background(), cfg.self, modeCompile, ok, time.Minute)
	if err != nil || okRun.out.Err != "" {
		t.Fatalf("reference compile: %v %s", err, okRun.out.Err)
	}
	okTime := time.Since(start)

	start = time.Now()
	r, err := measureCompiles(context.Background(), cfg, []job{ok, blowupJob(t)}, []float64{0})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2, 1", r.attempted, r.failed)
	}
	notes := strings.Join(r.notes, "\n")
	if !strings.Contains(notes, "killed at the "+cfg.killCap.String()+" cap") || !strings.Contains(notes, "failed_share 0.5000") {
		t.Errorf("kill not reported in the failed share:\n%s", notes)
	}
	if limit := cfg.killCap + 2*time.Second + okTime; elapsed > limit {
		t.Errorf("runner took %s, want at most %s", elapsed, limit)
	}
}
