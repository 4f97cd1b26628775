package tqec

import (
	"reflect"
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

	// The dagger and NOT twins lower to the same ICM form (daggers and
	// Pauli placement do not survive the conversion), but the ZX pass
	// reads the decomposed gates, so every pair of twins needs two keys.
	pdag := qc.Gate{Kind: qc.GatePdag, Targets: []int{0}}
	vdag := qc.Gate{Kind: qc.GateVdag, Targets: []int{0}}
	assertDistinctKeys(t, map[string][2][]qc.Gate{
		"V/V†":               {{qc.V(0)}, {vdag}},
		"T/T†":               {{qc.T(0)}, {qc.Tdag(0)}},
		"P/P†":               {{qc.P(0)}, {pdag}},
		"NOT across control": {{qc.NOT(0), qc.CNOT(0, 1)}, {qc.CNOT(0, 1), qc.NOT(0)}},
	})

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

// TestCacheKeyDistinguishes checks that gate order, gate count, gate
// kind and the circuit name each reach the content address.
func TestCacheKeyDistinguishes(t *testing.T) {
	assertDistinctKeys(t, map[string][2][]qc.Gate{
		"swapped gates":       {{qc.CNOT(0, 1), qc.CNOT(1, 2)}, {qc.CNOT(1, 2), qc.CNOT(0, 1)}},
		"extra gate":          {{qc.CNOT(0, 1), qc.CNOT(1, 2)}, {qc.CNOT(0, 1), qc.CNOT(1, 2), qc.P(0)}},
		"T instead of a CNOT": {{qc.CNOT(0, 1), qc.CNOT(1, 2)}, {qc.CNOT(0, 1), qc.T(2)}},
	})
	renamed := testCircuit()
	renamed.Name = "other"
	if keyFor(t, renamed, DefaultOptions()) == keyFor(t, testCircuit(), DefaultOptions()) {
		t.Error("renamed circuit, same key")
	}
}

// assertDistinctKeys builds each pair of gate lists into two circuits on
// three qubits and fails if the pair shares a key.
func assertDistinctKeys(t *testing.T, twins map[string][2][]qc.Gate) {
	t.Helper()
	for name, twin := range twins {
		a, b := qc.New("twin", 3), qc.New("twin", 3)
		a.Append(twin[0]...)
		b.Append(twin[1]...)
		if keyFor(t, a, DefaultOptions()) == keyFor(t, b, DefaultOptions()) {
			t.Errorf("%s: the twins share a key", name)
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
// identically: hooks and fault-injection callbacks.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := DefaultOptions()
	baseKey := keyFor(t, testCircuit(), base)

	hooked := base
	hooked.Hooks.BeforeStage = func(Stage) error { return nil }
	hooked.Route.FailNet = func(int) bool { return false }
	if keyFor(t, testCircuit(), hooked) != baseKey {
		t.Error("non-semantic fields changed the key")
	}
}

func TestCacheKeyInvalidCircuit(t *testing.T) {
	c := qc.New("bad", 1)
	c.Append(qc.CNOT(0, 5)) // target out of range
	if _, err := CacheKey(c, DefaultOptions()); err == nil {
		t.Fatal("CacheKey on an invalid circuit succeeded")
	}
}

// fuzzKinds is the decomposed gate set FuzzCacheKey draws from, and
// daggerTwin maps each of its kinds that has a dagger twin to the twin.
var (
	fuzzKinds = []qc.GateKind{qc.GateCNOT, qc.GateP, qc.GatePdag, qc.GateV,
		qc.GateVdag, qc.GateT, qc.GateTdag, qc.GateNOT, qc.GateZ}
	daggerTwin = map[qc.GateKind]qc.GateKind{
		qc.GateP: qc.GatePdag, qc.GatePdag: qc.GateP,
		qc.GateV: qc.GateVdag, qc.GateVdag: qc.GateV,
		qc.GateT: qc.GateTdag, qc.GateTdag: qc.GateT,
	}
)

// decodeKeyCircuit turns fuzzer bytes into a small decomposed circuit on
// three qubits, one byte v per gate: v%9 picks the kind, v/9%3 the target
// and, for a CNOT, v/27%2 which of the other two qubits is the control.
func decodeKeyCircuit(data []byte) *qc.Circuit {
	const maxGates = 32
	c := qc.New("fuzz-key", 3)
	for _, v := range data {
		if c.NumGates() == maxGates {
			break
		}
		g := qc.Gate{Kind: fuzzKinds[v%9], Targets: []int{int(v/9) % 3}}
		if g.Kind == qc.GateCNOT {
			g.Controls = []int{(g.Targets[0] + 1 + int(v/27)%2) % 3}
		}
		c.Append(g)
	}
	return c
}

// FuzzCacheKey checks that the content address tells decomposed circuits
// apart. Bytes from the third on decode into a circuit; the first byte
// picks one edit for a second circuit (toggle a dagger, swap two adjacent
// gates, or drop a gate) and the second byte the gate it applies to. The
// two keys must be equal exactly when the two gate lists are. The seeds
// under testdata/fuzz/FuzzCacheKey toggle V and T† and move a NOT across
// the control of a CNOT, the twins an ICM-based key could not tell apart.
func FuzzCacheKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		a := decodeKeyCircuit(data[2:])
		b := qc.New(a.Name, a.NumQubits())
		b.Append(a.Gates...)
		if n := b.NumGates(); n > 0 {
			i := int(data[1]) % n
			switch data[0] % 3 {
			case 0:
				if twin, ok := daggerTwin[b.Gates[i].Kind]; ok {
					b.Gates[i].Kind = twin
				}
			case 1:
				if i+1 < n {
					b.Gates[i], b.Gates[i+1] = b.Gates[i+1], b.Gates[i]
				}
			case 2:
				b.Gates = append(b.Gates[:i], b.Gates[i+1:]...)
			}
		}
		same := reflect.DeepEqual(a.Gates, b.Gates)
		opts := DefaultOptions()
		if (keyFor(t, a, opts) == keyFor(t, b, opts)) != same {
			t.Fatalf("gate lists equal: %v, but keys equal: %v\n a %v\n b %v", same, !same, a.Gates, b.Gates)
		}
	})
}
