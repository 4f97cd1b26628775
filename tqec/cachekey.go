package tqec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/qc"
)

// cacheKeyVersion tags the option-encoding layout hashed into CacheKey;
// bump it whenever a semantic Options field is added or the encoding
// changes so old addresses can never alias new configurations.
const cacheKeyVersion = 6

// CanonicalOptions returns a copy of opts normalized for content
// addressing: non-semantic fields are cleared (Hooks callbacks, the
// route fault-injection hook, the stage-timing Clock, the Serial
// debugging toggle, which is provably equivalent to the batched pass) and
// values the pipeline resolves — the unbridged routing resource, the
// chain count, a pass-through partition — are resolved the same way, so
// two Options values that compile identically canonicalize, and therefore
// hash, identically.
func CanonicalOptions(opts Options) Options {
	opts.Hooks = Hooks{}
	opts.Route.FailNet = nil
	opts.Route.Serial = false
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

// CacheKey returns the canonical content address of a compilation: the hex
// SHA-256 of the circuit's deterministic ICM byte encoding concatenated
// with the normalized options. Two (circuit, options) pairs share an
// address iff CompileContext would produce the same result for both (up to
// wall-clock), so the address is safe to use as a result-cache key. The
// circuit is decomposed and ICM-converted to compute the address; both are
// deterministic and cheap next to a compilation.
func CacheKey(c *qc.Circuit, opts Options) (string, error) {
	d, err := decompose.Decompose(c)
	if err != nil {
		return "", fmt.Errorf("cache key: %w", err)
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		return "", fmt.Errorf("cache key: %w", err)
	}
	return CacheKeyICM(ic, opts)
}

// CacheKeyICM is CacheKey for circuits already in ICM form (the
// CompileICMContext entry point).
func CacheKeyICM(ic *icm.Circuit, opts Options) (string, error) {
	if ic == nil {
		return "", fmt.Errorf("cache key: nil ICM circuit")
	}
	b := ic.AppendCanonical(nil)
	b = appendOptions(b, CanonicalOptions(opts))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
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

// appendBool appends one byte, 0 or 1.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
