package tqec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bridge"
	"repro/internal/faults"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
)

func cnot3() *qc.Circuit {
	c := qc.New("ctx-probe", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
	return c
}

// An already-canceled context must abort CompileContext promptly with a
// StageError wrapping ErrCanceled and a nil result.
func TestCompileContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := CompileContext(ctx, cnot3(), FastOptions())
	if res != nil {
		t.Fatal("result should be nil")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if _, ok := AsStageError(err); !ok {
		t.Fatalf("want StageError, got %T %v", err, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("abort took %v, want prompt return", d)
	}
}

// Each iterative stage must individually observe an already-canceled
// context and return ErrCanceled.
func TestStageRunContextCanceled(t *testing.T) {
	res, err := Compile(cnot3(), FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := bridge.RunContext(ctx, res.Netlist, true); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("bridge: want ErrCanceled, got %v", err)
	}
	if _, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, place.DefaultOptions()); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("place: want ErrCanceled, got %v", err)
	}
	if _, err := route.RunContext(ctx, res.Placement, route.DefaultOptions()); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("route: want ErrCanceled, got %v", err)
	}
}

// A deadline expiring mid-SA must abort within a bounded wall-clock: the
// annealer polls cancellation every few dozen moves, so a huge iteration
// budget must not run to completion.
func TestDeadlineAbortsMidSA(t *testing.T) {
	opts := DefaultOptions()
	opts.Place.Iterations = 200_000_000 // hours if run to completion
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := CompileContext(ctx, cnot3(), opts)
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("result should be nil")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	se, ok := AsStageError(err)
	if !ok || se.Stage != StagePlacement {
		t.Fatalf("want placement StageError, got %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("mid-SA abort took %v, want bounded wall-clock", elapsed)
	}
}

// bridgeBlowup is a 9-gate circuit whose bridging path search explores
// exponentially many partial paths: run to completion it takes seconds.
const bridgeBlowup = `.version 2.0
.numvars 5
.variables q0 q1 q2 q3 q4
.begin
t3 q0 q1 q3
t1 q4
t2 q1 q4
t2 q2 q4
t1 q2
t3 q0 q4 q2
t1 q2
t3 q1 q4 q3
t1 q1
.end
`

// A deadline that expires inside a single merge attempt's path search must
// abort bridging promptly, not after the search runs out.
func TestDeadlineAbortsMidBridging(t *testing.T) {
	c, err := qc.ParseReal("bridge-blowup", strings.NewReader(bridgeBlowup))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Place.Seed = 1
	opts.Place.Chains = 1
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := CompileContext(ctx, c, opts)
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("result should be nil")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	se, ok := AsStageError(err)
	if !ok || se.Stage != StageBridging {
		t.Fatalf("want bridging StageError, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("mid-bridging abort took %v, want under 2s", elapsed)
	}
}

// A successful compile records exactly one placement attempt and no
// fault-tolerance counters.
func TestCleanCompileCountsNothing(t *testing.T) {
	res, err := Compile(cnot3(), FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.PlacementAttempts != 1 {
		t.Fatalf("PlacementAttempts = %d, want 1", res.PlacementAttempts)
	}
	if res.Degraded {
		t.Fatal("clean compile should not be degraded")
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// With fallback routing disabled, forced net failures leave unrouted nets:
// the compile still succeeds (degraded), Verify fails with ErrUnroutable,
// and StrictRouting turns the same situation into a hard routing error.
func TestUnroutableNetsDegradeOrFailStrict(t *testing.T) {
	opts := FastOptions()
	opts.Route.Fallback = false
	opts.Route.FailNet = func(int) bool { return true }
	res, err := Compile(cnot3(), opts)
	if err != nil {
		t.Fatalf("degraded compile should succeed, got %v", err)
	}
	if !res.Degraded || len(res.Routing.Failed) == 0 {
		t.Fatalf("want degraded result with unrouted nets, got degraded=%v failed=%d",
			res.Degraded, len(res.Routing.Failed))
	}
	for _, f := range res.Routing.FailedNets {
		if f.Fallback {
			t.Fatalf("net %d marked fallback-routed with fallback disabled", f.NetID)
		}
	}
	if verr := res.Verify(); !errors.Is(verr, ErrUnroutable) {
		t.Fatalf("Verify must fail with ErrUnroutable, got %v", verr)
	}

	opts.StrictRouting = true
	if _, err := Compile(cnot3(), opts); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("strict routing: want ErrUnroutable, got %v", err)
	} else if se, ok := AsStageError(err); !ok || se.Stage != StageRouting {
		t.Fatalf("strict routing: want routing StageError, got %v", err)
	}
}
