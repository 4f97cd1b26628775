package tqec

import (
	"runtime"
	"testing"

	"repro/internal/qc"
)

func keyFor(t *testing.T, c *qc.Circuit, opts Options) string {
	t.Helper()
	k, err := CacheKey(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testCircuit() *qc.Circuit {
	c := qc.New("key", 3)
	c.Append(qc.CNOT(0, 1), qc.Toffoli(0, 1, 2))
	return c
}

func TestCacheKeyStable(t *testing.T) {
	opts := DefaultOptions()
	a := keyFor(t, testCircuit(), opts)
	for i := 0; i < 8; i++ {
		if b := keyFor(t, testCircuit(), opts); b != a {
			t.Fatalf("round %d: key changed: %s vs %s", i, a, b)
		}
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", a)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := keyFor(t, testCircuit(), DefaultOptions())

	other := testCircuit()
	other.Append(qc.NOT(0))
	if keyFor(t, other, DefaultOptions()) == base {
		t.Error("different circuit, same key")
	}

	for name, mutate := range map[string]func(*Options){
		"seed":       func(o *Options) { o.Place.Seed++ },
		"iterations": func(o *Options) { o.Place.Iterations = 777 },
		"bridging":   func(o *Options) { o.Bridging = false },
		"strict":     func(o *Options) { o.StrictRouting = true },
		"chains":     func(o *Options) { o.Place.Chains = o.Place.EffectiveChains() + 1 },
	} {
		o := DefaultOptions()
		mutate(&o)
		if keyFor(t, testCircuit(), o) == base {
			t.Errorf("%s: option change did not change the key", name)
		}
	}
}

// TestCacheKeyResolvesChains pins that the content address names the
// chain count placement will run: Chains 0 resolves to min(GOMAXPROCS, 4),
// and the chain count shapes the layout, so the default key must follow
// GOMAXPROCS and equal the key of the explicit count.
func TestCacheKeyResolvesChains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys := map[int]string{}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		keys[procs] = keyFor(t, testCircuit(), DefaultOptions())
		explicit := DefaultOptions()
		explicit.Place.Chains = procs
		if keyFor(t, testCircuit(), explicit) != keys[procs] {
			t.Errorf("GOMAXPROCS %d: Chains 0 hashes unlike Chains %d", procs, procs)
		}
	}
	if keys[1] == keys[2] {
		t.Error("the default key is the same at GOMAXPROCS 1 and 2, where placement runs 1 and 2 chains")
	}
}

// TestCacheKeyCanonicalization checks that non-semantic differences hash
// identically: hooks, fault-injection callbacks, the Serial toggle, and
// out-of-range values that the pipeline clamps.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := DefaultOptions()
	baseKey := keyFor(t, testCircuit(), base)

	hooked := base
	hooked.Hooks.BeforeStage = func(Stage) error { return nil }
	hooked.Route.FailNet = func(int) bool { return false }
	hooked.Route.Serial = true
	if keyFor(t, testCircuit(), hooked) != baseKey {
		t.Error("non-semantic fields changed the key")
	}

	clamped := base
	clamped.Retry.MaxAttempts = base.Retry.MaxAttempts
	clamped.PrimalGap = 0
	zeroGap := base
	zeroGap.PrimalGap = 1
	if keyFor(t, testCircuit(), clamped) != keyFor(t, testCircuit(), zeroGap) {
		t.Error("PrimalGap 0 and 1 should canonicalize identically")
	}

	r0 := base
	r0.Retry = Retry{}
	r1 := base
	r1.Retry = Retry{MaxAttempts: 1, Escalation: 2}
	if keyFor(t, testCircuit(), r0) != keyFor(t, testCircuit(), r1) {
		t.Error("zero Retry and its clamped form should canonicalize identically")
	}
}

func TestCacheKeyICMNil(t *testing.T) {
	if _, err := CacheKeyICM(nil, DefaultOptions()); err == nil {
		t.Fatal("CacheKeyICM(nil) succeeded")
	}
}

func TestCacheKeyInvalidCircuit(t *testing.T) {
	c := qc.New("bad", 1)
	c.Append(qc.CNOT(0, 5)) // target out of range
	if _, err := CacheKey(c, DefaultOptions()); err == nil {
		t.Fatal("CacheKey on an invalid circuit succeeded")
	}
}
