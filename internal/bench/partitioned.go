package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/partition"
	"repro/internal/qc"
	"repro/tqec"
)

// Partitioned is the optional partitioned-compile section of an artifact:
// the same generated clustered circuit compiled whole and through the
// partitioned pipeline under identical options, so the artifact records
// whether splitting pays for itself in wall-clock on this machine.
type Partitioned struct {
	// Circuit, Qubits and Gates identify the generated workload.
	Circuit string `json:"circuit"`
	Qubits  int    `json:"qubits"`
	Gates   int    `json:"gates"`
	// Cap is the per-part qubit ceiling the partitioned runs used.
	Cap int `json:"cap"`
	// Parts and Seams describe the cut the partitioner produced.
	Parts int `json:"parts"`
	Seams int `json:"seams"`
	// Whole and Split are the end-to-end wall times of the unpartitioned
	// and partitioned compiles over the iterations.
	Whole Stat `json:"whole"`
	Split Stat `json:"split"`
	// Speedup is Whole.MinNS / Split.MinNS — above 1 the partitioned
	// compile was faster.
	Speedup float64 `json:"speedup"`
	// WholeVolume and SplitVolume record both results' space-time
	// volumes, so the quality side of the trade is visible next to the
	// speedup (slab gaps and seam routes cost volume; independent
	// per-part placements can win some back).
	WholeVolume int `json:"whole_volume"`
	SplitVolume int `json:"split_volume"`
}

// partitionWorkload builds the deterministic partition benchmark circuit:
// `clusters` dense CNOT rings of `size` qubits each, traversed `rounds`
// times, with two Toffolis and a NOT-per-qubit inside each cluster,
// coupled by one bridge CNOT between adjacent clusters — a
// qubit-interaction graph with an obvious small cut, the workload shape
// the partitioner exists for. The Toffolis matter: their decomposition
// swells the ICM enough that whole-circuit placement and routing turn
// superlinear, which is the regime where splitting pays.
func partitionWorkload(clusters, size, rounds int) *qc.Circuit {
	n := clusters * size
	c := qc.New(fmt.Sprintf("clustered%d", n), n)
	for cl := 0; cl < clusters; cl++ {
		base := cl * size
		for r := 0; r < rounds; r++ {
			for i := 0; i < size; i++ {
				c.Append(qc.CNOT(base+i, base+(i+1)%size))
			}
		}
		for t := 0; t < 2; t++ {
			c.Append(qc.Toffoli(base+t, base+t+1, base+t+2))
		}
		for i := 0; i < size; i++ {
			c.Append(qc.NOT(base + i))
		}
	}
	for cl := 0; cl+1 < clusters; cl++ {
		c.Append(qc.CNOT(cl*size+size-1, (cl+1)*size))
	}
	return c
}

// runPartitioned measures the partitioned-compile stage: the clustered
// workload (4 rings of `cap` qubits plus bridges) compiled whole and
// split, Iterations times each, under the pipeline options the rest of
// the artifact uses.
func runPartitioned(ctx context.Context, opts Options) (*Partitioned, error) {
	size := opts.PartitionCap
	if size < 4 {
		// The per-cluster Toffolis span four qubits of the ring.
		return nil, fmt.Errorf("partition cap %d < 4", opts.PartitionCap)
	}
	c := partitionWorkload(4, size, 2)
	p := &Partitioned{
		Circuit: c.Name,
		Qubits:  c.NumQubits(),
		Gates:   c.NumGates(),
		Cap:     opts.PartitionCap,
	}

	base := tqec.DefaultOptions()
	base.Place.Seed = opts.Seed
	base.Place.Chains = 1
	whole := make([]time.Duration, 0, opts.Iterations)
	split := make([]time.Duration, 0, opts.Iterations)
	for it := 0; it < opts.Iterations; it++ {
		start := time.Now()
		wres, err := tqec.CompileContext(ctx, c, base)
		if err != nil {
			return nil, fmt.Errorf("whole compile: %w", err)
		}
		whole = append(whole, time.Since(start))
		p.WholeVolume = wres.Volume

		popts := base
		popts.Partition = partition.Options{MaxQubitsPerPart: opts.PartitionCap, Seed: opts.Seed}
		start = time.Now()
		sres, err := tqec.CompilePartitionedContext(ctx, c, popts)
		if err != nil {
			return nil, fmt.Errorf("partitioned compile: %w", err)
		}
		split = append(split, time.Since(start))
		p.SplitVolume = sres.Volume
		p.Parts, p.Seams, _ = sres.Partition.Stats()
	}
	p.Whole = newStat(whole)
	p.Split = newStat(split)
	if p.Split.MinNS > 0 {
		p.Speedup = float64(p.Whole.MinNS) / float64(p.Split.MinNS)
	}
	return p, nil
}
