package tqec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/partition"
	"repro/internal/qc"
)

// partitionedFixture builds a circuit whose interaction graph has two
// dense clusters joined by one CNOT, so a cap of 3 splits it cleanly.
func partitionedFixture(t *testing.T) *qc.Circuit {
	t.Helper()
	c := qc.New("stitched", 6)
	for r := 0; r < 2; r++ {
		c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2), qc.CNOT(0, 2))
		c.Append(qc.CNOT(3, 4), qc.CNOT(4, 5), qc.CNOT(3, 5))
	}
	c.Append(qc.CNOT(2, 3))
	c.Append(qc.NOT(0), qc.T(4))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func partitionedOpts(cap int) Options {
	o := FastOptions()
	o.Partition = partition.Options{MaxQubitsPerPart: cap, Seed: 1}
	return o
}

// TestIdentityCircuitIsErrEmpty pins that a caller outside the module can
// recognise a circuit that reduces to nothing: six NOTs on 5 qubits that
// cancel pairwise fail in the placement stage with ErrEmpty, whole and at
// partition cap 3.
func TestIdentityCircuitIsErrEmpty(t *testing.T) {
	c := qc.New("identity", 5)
	c.Append(qc.NOT(0), qc.NOT(1), qc.NOT(0), qc.NOT(2), qc.NOT(1), qc.NOT(2))
	_, whole := CompileContext(context.Background(), c, FastOptions())
	_, split := CompilePartitionedContext(context.Background(), c, partitionedOpts(3))
	for _, tc := range []struct {
		name string
		err  error
	}{{"whole", whole}, {"cap 3", split}} {
		if !errors.Is(tc.err, ErrEmpty) {
			t.Fatalf("%s: want ErrEmpty, got %v", tc.name, tc.err)
		}
		if se, ok := AsStageError(tc.err); !ok || se.Stage != StagePlacement {
			t.Fatalf("%s: want a placement StageError, got %v", tc.name, tc.err)
		}
	}
}

func TestCompilePartitionedStitchesSlabs(t *testing.T) {
	c := partitionedFixture(t)
	res, err := CompilePartitionedContext(context.Background(), c, partitionedOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.PassThrough {
		t.Fatal("six qubits with cap 3 compiled pass-through")
	}
	if got := len(res.Parts); got != 2 {
		t.Fatalf("%d parts, want 2", got)
	}
	if len(res.SeamNets) != 1 || res.SeamRouting == nil {
		t.Fatalf("seam nets %d (routing %v), want exactly the bridging CNOT", len(res.SeamNets), res.SeamRouting)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Volume <= 0 || res.Dims.Volume() != res.Volume {
		t.Fatalf("volume %d dims %v inconsistent", res.Volume, res.Dims)
	}
	// The combined extent must cover both slabs and the seam pins.
	for i, s := range res.Slabs {
		if s.Volume() <= 0 {
			t.Fatalf("slab %d is empty: %v", i, s)
		}
	}
	if res.Breakdown.Get("qubit partition") < 0 || res.Breakdown.Get("seam stitching") < 0 {
		t.Fatal("stitch stages missing from the breakdown")
	}
}

func TestCompilePartitionedPassThroughMatchesCompile(t *testing.T) {
	c := partitionedFixture(t)
	opts := partitionedOpts(0) // non-positive cap: pass-through
	pres, err := CompilePartitionedContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pres.PassThrough || len(pres.Parts) != 1 || pres.SeamRouting != nil {
		t.Fatalf("cap 0 did not pass through: %d parts, seams %v", len(pres.Parts), pres.SeamRouting)
	}
	plain, err := Compile(c, FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pres.Volume != plain.Volume || pres.Dims != plain.Dims {
		t.Fatalf("pass-through volume %d %v, plain compile %d %v",
			pres.Volume, pres.Dims, plain.Volume, plain.Dims)
	}
}

func TestCompilePartitionedDeterministic(t *testing.T) {
	c := partitionedFixture(t)
	opts := partitionedOpts(3)
	a, err := CompilePartitionedContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompilePartitionedContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Volume != b.Volume || a.Dims != b.Dims {
		t.Fatalf("reruns differ: %d %v vs %d %v", a.Volume, a.Dims, b.Volume, b.Dims)
	}
	for i := range a.Slabs {
		if a.Slabs[i] != b.Slabs[i] {
			t.Fatalf("slab %d differs across reruns: %v vs %v", i, a.Slabs[i], b.Slabs[i])
		}
	}
	for id, p := range a.SeamRouting.Routes {
		q := b.SeamRouting.Routes[id]
		if len(p) != len(q) {
			t.Fatalf("seam %d route differs across reruns", id)
		}
		for j := range p {
			if p[j] != q[j] {
				t.Fatalf("seam %d route differs at step %d", id, j)
			}
		}
	}
}

func TestCacheKeyDependsOnPartition(t *testing.T) {
	c := partitionedFixture(t)
	base, err := CacheKey(c, FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	capped, err := CacheKey(c, partitionedOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if base == capped {
		t.Fatal("cache key ignores the partition cap")
	}
	// A non-positive cap is pass-through; its seed must not perturb the
	// address.
	o := FastOptions()
	o.Partition = partition.Options{MaxQubitsPerPart: 0, Seed: 99}
	zeroCap, err := CacheKey(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if zeroCap != base {
		t.Fatal("pass-through partition seed changed the cache key")
	}
}
