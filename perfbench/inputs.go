package main

import (
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/partition"
	"repro/internal/qc"
	"repro/tqec"
)

// compileSeed is the SA seed of every compile. The workload seed picks the
// circuits; the compiler's own seed stays fixed so a volume change between
// two builds is the compiler's doing.
const compileSeed = 1

// job is one compile request: the circuit as RevLib .real text plus the
// options a tqecd request would carry. Children and the daemon both parse
// the same text, so their results are comparable byte for byte.
type job struct {
	Name   string `json:"name"`
	Real   string `json:"real"`
	Seed   int64  `json:"seed"`
	Chains int    `json:"chains"`
	// Cap is the partition cap; a positive cap compiles through
	// tqec.CompilePartitionedContext.
	Cap int `json:"cap,omitempty"`
	// Trace makes the child also report the per-layer account.
	Trace bool `json:"trace,omitempty"`
}

// newJob renders c as a job.
func newJob(c *qc.Circuit, chains, cap int) (job, error) {
	var b strings.Builder
	if err := qc.WriteReal(&b, c); err != nil {
		return job{}, fmt.Errorf("write %s: %w", c.Name, err)
	}
	return job{Name: c.Name, Real: b.String(), Seed: compileSeed, Chains: chains, Cap: cap}, nil
}

// circuit parses the job's circuit the way tqecd's request parser does.
func (j job) circuit() (*qc.Circuit, error) {
	c, err := qc.ParseReal(j.Name, strings.NewReader(j.Real))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", j.Name, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("validate %s: %w", j.Name, err)
	}
	return c, nil
}

// options maps the job onto pipeline options exactly as tqecd maps a
// request carrying the same seed, chains and partition_qubits.
func (j job) options() tqec.Options {
	o := tqec.DefaultOptions()
	o.Place.Seed = j.Seed
	o.Place.Chains = j.Chains
	if j.Cap > 0 {
		o.Partition = partition.Options{MaxQubitsPerPart: j.Cap, Seed: j.Seed}
	}
	return o
}

// key is the job's content address, as tqecd computes it.
func (j job) key() (string, error) {
	c, err := j.circuit()
	if err != nil {
		return "", err
	}
	return tqec.CacheKey(c, j.options())
}

// universe is the finite list of circuits one workload draws its inputs
// from. Draw i is a pure function of the universe and i, never of the
// seed or of the compiler, so every build sees the same list; excluded.txt
// removes the draws an offline screen found failing or overrunning (see
// screenUniverses), and a draw repeating an earlier circuit is skipped.
type universe struct {
	name string
	size int
	draw func(i int) *qc.Circuit
	// stratum orders draws by the work they make; pick spreads evenly
	// over this order.
	stratum func(c *qc.Circuit) stratum
}

// randomClass is the universe of random reversible circuits drawn as
// tqecverify's randomCircuit draws them: a qubit count and a gate count
// uniform over their ranges, then each gate a Toffoli with probability
// 1/3, else a CNOT or a NOT with equal probability, on distinct random
// operands. Its strata are the Toffoli count, which compile time follows
// closely, then the CNOT count, the NOT count and the qubit count: the
// whole gate profile, so that rank k of ranked is a circuit of the same
// profile on every seed and only its operands follow the seed.
func randomClass(name string, qubits, gates [2]int, size int) universe {
	return universe{name: name, size: size, draw: func(i int) *qc.Circuit {
		rng := rand.New(rand.NewSource(universeSeed(name, i)))
		n := qubits[0] + rng.Intn(qubits[1]-qubits[0]+1)
		c := qc.New(fmt.Sprintf("%s-%d", name, i), n)
		for g := gates[0] + rng.Intn(gates[1]-gates[0]+1); g > 0; g-- {
			switch {
			case rng.Intn(3) == 0:
				q := rng.Perm(n)
				c.Append(qc.Toffoli(q[0], q[1], q[2]))
			case rng.Intn(2) == 0:
				q := rng.Perm(n)
				c.Append(qc.CNOT(q[0], q[1]))
			default:
				c.Append(qc.NOT(rng.Intn(n)))
			}
		}
		return c
	}, stratum: func(c *qc.Circuit) stratum {
		return stratum{c.CountKind(qc.GateToffoli), c.CountKind(qc.GateCNOT), c.CountKind(qc.GateNOT), c.NumQubits()}
	}}
}

// The input universes. Each is several times larger than the most inputs
// a 60 s run draws from it.
var (
	// mixUniverse: 5–8 qubits, 8–16 gates, the class of compile-mix.
	mixUniverse = randomClass("mix", [2]int{5, 8}, [2]int{8, 16}, 2000)
	// serviceUniverse: 5–6 qubits, 6–10 gates, the class of both service
	// workloads.
	serviceUniverse = randomClass("svc", [2]int{5, 6}, [2]int{6, 10}, 1500)
	// clusteredUniverse: see clusteredCircuit; strata are the qubit count
	// and the number of CNOTs (ring CNOTs plus one or two bridges per
	// neighbouring pair of rings).
	clusteredUniverse = universe{name: "clustered", size: 500, draw: clusteredCircuit,
		stratum: func(c *qc.Circuit) stratum { return stratum{c.NumQubits(), c.CountKind(qc.GateCNOT)} }}
)

// ringSizes are the clustered-split shapes: four rings of 5 or 6 qubits.
var ringSizes = [][4]int{{5, 5, 5, 5}, {6, 6, 6, 6}, {5, 6, 5, 6}, {6, 5, 6, 5}}

// clusteredCircuit is draw i of the clustered universe: four CNOT rings,
// each traversed twice, with two Toffolis at random ring offsets and a
// NOT per qubit, joined by one or two random bridge CNOTs between
// neighbouring rings: an interaction graph with a small cut, the shape the
// partitioner exists for.
func clusteredCircuit(i int) *qc.Circuit {
	sizes := ringSizes[i%len(ringSizes)]
	rng := rand.New(rand.NewSource(universeSeed("clustered", i)))
	n := 0
	var bases [4]int
	for k, s := range sizes {
		bases[k] = n
		n += s
	}
	c := qc.New(fmt.Sprintf("clustered-%d", i), n)
	for cl, size := range sizes {
		base := bases[cl]
		for r := 0; r < 2; r++ {
			for q := 0; q < size; q++ {
				c.Append(qc.CNOT(base+q, base+(q+1)%size))
			}
		}
		for t := 0; t < 2; t++ {
			o := rng.Intn(size)
			c.Append(qc.Toffoli(base+o, base+(o+1)%size, base+(o+2)%size))
		}
		for q := 0; q < size; q++ {
			c.Append(qc.NOT(base + q))
		}
	}
	for cl := 0; cl+1 < len(sizes); cl++ {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			c.Append(qc.CNOT(bases[cl]+rng.Intn(sizes[cl]), bases[cl+1]+rng.Intn(sizes[cl+1])))
		}
	}
	return c
}

// stratum is a draw's sort key, most significant count first.
type stratum [4]int

// member is one usable draw of a universe.
type member struct {
	index   int
	c       *qc.Circuit
	stratum stratum
}

// members are the universe's draws minus those in skip and repeats, in
// index order.
func (u universe) members(skip map[int]bool) []member {
	seen := map[string]bool{}
	var ms []member
	for i := 0; i < u.size; i++ {
		if skip[i] {
			continue
		}
		c := u.draw(i)
		k := fmt.Sprint(c.NumQubits(), c.Gates)
		if seen[k] {
			continue
		}
		seen[k] = true
		ms = append(ms, member{i, c, u.stratum(c)})
	}
	return ms
}

// ranked draws n distinct circuits from u for seed, in stratum order: the
// seed shuffles the draws within each stratum, and the picks sit at evenly
// spaced ranks of the stratum order, so every seed gets the same number of
// circuits from each stratum and only which circuits they are follow the
// seed.
func (u universe) ranked(seed int64, n int) ([]*qc.Circuit, error) {
	ms := u.members(excluded[u.name])
	if n > len(ms) {
		return nil, fmt.Errorf("universe %s has %d usable circuits, %d wanted", u.name, len(ms), n)
	}
	tie := make(map[int]int64, len(ms))
	for _, m := range ms {
		tie[m.index] = drawSeed(seed, u.name, m.index)
	}
	sort.Slice(ms, func(a, b int) bool {
		if c := slices.Compare(ms[a].stratum[:], ms[b].stratum[:]); c != 0 {
			return c < 0
		}
		return tie[ms[a].index] < tie[ms[b].index]
	})
	out := make([]*qc.Circuit, n)
	for k := range out {
		out[k] = ms[(2*k+1)*len(ms)/(2*n)].c
	}
	return out, nil
}

// pick draws the circuits of ranked in golden-ratio order: the pick of
// rank k goes to position frac(off + k·φ) of the run, off drawn from the
// seed, so circuits of neighbouring ranks, which cost about the same, sit
// far apart. Costly circuits then never bunch up, which on the open-loop
// workload would queue requests behind each other by the luck of the seed.
func (u universe) pick(seed int64, n int) ([]*qc.Circuit, error) {
	cs, err := u.ranked(seed, n)
	if err != nil {
		return nil, err
	}
	off := float64(uint64(drawSeed(seed, u.name, -1))>>11) / (1 << 52)
	pos := make([]float64, n)
	order := make([]int, n)
	for k := range order {
		pos[k], order[k] = math.Mod(off+float64(k)*math.Phi, 1), k
	}
	sort.Slice(order, func(a, b int) bool { return pos[order[a]] < pos[order[b]] })
	out := make([]*qc.Circuit, n)
	for i, k := range order {
		out[i] = cs[k]
	}
	return out, nil
}

// universeSeed is the generator seed of draw i of a universe.
func universeSeed(name string, i int) int64 { return drawSeed(0, name, i) }

// drawSeed mixes a workload seed, a name and an index into a generator
// seed (splitmix64 finalizer over an FNV-1a hash of the name).
func drawSeed(seed int64, name string, i int) int64 {
	h := uint64(14695981039346656037)
	for k := 0; k < len(name); k++ {
		h = (h ^ uint64(name[k])) * 1099511628211
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h ^ uint64(int64(i))<<16
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// excludedList is the output of an offline screen (perfbench --screen):
// one "universe index" line per draw whose compile failed or ran past the
// screen's cap.
//
//go:embed excluded.txt
var excludedList string

// excluded are the excluded draws by universe name.
var excluded = parseExcluded(excludedList)

func parseExcluded(s string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		i, err := strconv.Atoi(f[1])
		if err != nil {
			panic(fmt.Sprintf("excluded.txt: %q: %v", line, err))
		}
		if out[f[0]] == nil {
			out[f[0]] = map[int]bool{}
		}
		out[f[0]][i] = true
	}
	return out
}
