package tqec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/decompose"
	"repro/internal/qc"
)

// cacheKeyVersion tags the layout of the bytes CacheKey hashes; bump it
// whenever a semantic Options field is added or either encoding changes
// so old addresses can never alias new configurations.
const cacheKeyVersion = 7

// CanonicalOptions returns a copy of opts normalized for content
// addressing: non-semantic fields are cleared (Hooks callbacks, the
// route fault-injection hook, the stage-timing Clock) and values the
// pipeline resolves — the unbridged routing resource, the chain count, a
// pass-through partition — are resolved the same way, so two Options
// values that compile identically canonicalize, and therefore hash,
// identically.
func CanonicalOptions(opts Options) Options {
	opts.Hooks = Hooks{}
	opts.Route.FailNet = nil
	opts.Route.Clock = nil
	opts = withRoutingResource(opts)
	// Chains 0 resolves to a CPU-dependent count, and the chain count
	// shapes the placement, so the key names the count that will run.
	opts.Place.Chains = opts.Place.EffectiveChains()
	// A non-positive partition cap is pass-through, under which the
	// partition seed never feeds a PRNG.
	if opts.Partition.MaxQubitsPerPart <= 0 {
		opts.Partition.MaxQubitsPerPart = 0
		opts.Partition.Seed = 0
	}
	return opts
}

// CacheKey returns the content address of a compilation: the hex SHA-256
// of the decomposed circuit's encoding (appendCircuit) followed by the
// normalized options (appendOptions). Every compile reads the decomposed
// circuit and nothing else of its input, so two (circuit, options) pairs
// share an address only if CompileContext would produce the same result
// for both (up to wall-clock), which makes the address safe to use as a
// result-cache key. The converse does not hold: circuits whose gate lists
// differ get different addresses even when they happen to compile alike.
// The circuit is decomposed to compute the address, so a circuit that
// cannot be decomposed is rejected here.
func CacheKey(c *qc.Circuit, opts Options) (string, error) {
	d, err := decompose.Decompose(c)
	if err != nil {
		return "", fmt.Errorf("cache key: %w", err)
	}
	b := appendCircuit(nil, d.Circuit)
	b = appendOptions(b, CanonicalOptions(opts))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// appendCircuit appends an encoding of a decomposed circuit: its name and
// qubit names, then each gate's kind, controls and targets in order. Every
// string and list is length-prefixed, so the encoding is injective.
func appendCircuit(b []byte, c *qc.Circuit) []byte {
	b = appendString(b, c.Name)
	b = appendI64(b, int64(len(c.Qubits)))
	for _, q := range c.Qubits {
		b = appendString(b, q)
	}
	b = appendI64(b, int64(len(c.Gates)))
	for _, g := range c.Gates {
		b = appendI64(b, int64(g.Kind))
		b = appendInts(b, g.Controls)
		b = appendInts(b, g.Targets)
	}
	return b
}

// appendOptions appends a fixed-order binary encoding of every semantic
// Options field. Field order is frozen per cacheKeyVersion.
func appendOptions(b []byte, o Options) []byte {
	b = append(b, 'o', 'p', 't', cacheKeyVersion)
	b = appendBool(b, o.Bridging)
	b = appendBool(b, o.ZX)
	b = appendBool(b, o.PrimalGroups)
	b = appendBool(b, o.NoBoxes)
	b = appendBool(b, o.StrictRouting)

	b = appendI64(b, int64(o.Place.Iterations))
	b = appendI64(b, o.Place.Seed)
	b = appendI64(b, int64(o.Place.Margin))
	b = appendI64(b, int64(o.Place.TierPitch))
	b = appendI64(b, int64(o.Place.Chains))

	b = appendBool(b, o.Route.FriendNets)
	b = appendBool(b, o.Route.Fallback)

	b = appendI64(b, int64(o.Partition.MaxQubitsPerPart))
	b = appendI64(b, o.Partition.Seed)
	return b
}

// appendI64 appends a little-endian int64.
func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendInts appends a length-prefixed list of ints.
func appendInts(b []byte, vs []int) []byte {
	b = appendI64(b, int64(len(vs)))
	for _, v := range vs {
		b = appendI64(b, int64(v))
	}
	return b
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendI64(b, int64(len(s)))
	return append(b, s...)
}

// appendBool appends one byte, 0 or 1.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
