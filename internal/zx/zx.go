// Package zx implements a ZX-calculus pre-compression pass over
// decomposed circuits: the CNOT+phase structure is translated into a
// graph-like ZX diagram, simplified by a terminating, deterministic
// rewrite system (spider fusion, identity removal, self-loop
// elimination, Hopf cancellation, local complementation and pivoting on
// the Clifford structure), and extracted back into a {CNOT, P, V, T}
// circuit from which the ICM is re-derived.
//
// The pass is sound by construction on the rewrite side (every rule is a
// ZX-calculus equality, applied only when its preconditions hold) and
// self-checking on the cost side: Optimize compares the canonical
// space-time volume of the rewritten circuit against the original and
// keeps the original unless the rewrite is a strict improvement, so the
// pipeline's compression is never made worse. Any extraction anomaly
// likewise falls back to the original circuit rather than failing the
// compilation.
package zx

import (
	"fmt"

	"repro/internal/canonical"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/qc"
)

// Stats reports what one Optimize call did.
type Stats struct {
	// Before and After are the gate-population counts of the input and of
	// whichever circuit Optimize returned.
	Before, After decompose.Stats
	// GatesBefore and GatesAfter are total gate counts.
	GatesBefore, GatesAfter int
	// CanonicalBefore and CanonicalAfter are the canonical space-time
	// volumes used for the keep/fall-back decision.
	CanonicalBefore, CanonicalAfter int
	// Rewrites is the number of diagram rewrites applied.
	Rewrites int
	// Applied reports whether the rewritten circuit replaced the input.
	Applied bool
	// FallbackReason is empty when Applied, and otherwise says why the
	// original circuit was kept.
	FallbackReason string
}

// reduce runs the full build → simplify → extract → lower chain with the
// complete rule set and returns the rewritten circuit unconditionally (no
// cost comparison). Optimize wraps it with the fall-back policy; tests
// call it directly so extraction bugs cannot hide behind the fall-back.
func reduce(c *qc.Circuit) (*qc.Circuit, int, error) {
	d, err := fromCircuit(c)
	if err != nil {
		return nil, 0, err
	}
	rewrites, err := d.simplify()
	if err != nil {
		return nil, rewrites, err
	}
	gs, err := extract(d)
	if err != nil {
		return nil, rewrites, err
	}
	out, err := lower(c, gs)
	if err != nil {
		return nil, rewrites, err
	}
	return out, rewrites, nil
}

// canonicalVolume prices a decomposed circuit the way the downstream
// pipeline does: ICM conversion followed by the canonical layout.
func canonicalVolume(c *qc.Circuit) (int, error) {
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		return 0, err
	}
	desc, err := canonical.Build(ic)
	if err != nil {
		return 0, err
	}
	return desc.Volume(), nil
}

// Optimize rewrites a decomposed circuit through the ZX pass and returns
// whichever of {original, rewritten} has the smaller canonical space-time
// volume, with ties kept on the original. The returned circuit is always
// valid input for icm.FromDecomposed. An error is returned only when the
// input itself is not a decomposed circuit; internal rewrite or
// extraction failures fall back to the original and are reported in
// Stats.FallbackReason.
func Optimize(c *qc.Circuit) (*qc.Circuit, Stats, error) {
	var st Stats
	before, err := decompose.Count(c)
	if err != nil {
		return nil, st, fmt.Errorf("zx: input is not a decomposed circuit: %w", err)
	}
	volBefore, err := canonicalVolume(c)
	if err != nil {
		return nil, st, fmt.Errorf("zx: input has no canonical layout: %w", err)
	}
	st.Before, st.After = before, before
	st.GatesBefore, st.GatesAfter = len(c.Gates), len(c.Gates)
	st.CanonicalBefore, st.CanonicalAfter = volBefore, volBefore

	// Two rewrite strategies compete: the wire-structured light pass
	// (phase folding + CNOT cancellation, no extraction overhead) and the
	// full Clifford system (deepest rewrites, but its extraction
	// re-synthesizes the CNOT layer). Each is priced by canonical volume;
	// the cheaper wins, with ties broken toward the light pass so the
	// output is a deterministic function of the input. The last failure
	// is kept for the all-failed fall-back message.
	strategies := []func(*qc.Circuit) (*qc.Circuit, int, error){reduceLight, reduce}
	var red *qc.Circuit
	volAfter := 0
	fallback := ""
	for _, strategy := range strategies {
		cand, rewrites, err := strategy(c)
		if err != nil {
			fallback = err.Error()
			continue
		}
		vol, err := canonicalVolume(cand)
		if err != nil {
			fallback = fmt.Sprintf("rewritten circuit not priceable: %v", err)
			continue
		}
		if red == nil || vol < volAfter {
			red, volAfter = cand, vol
			st.Rewrites = rewrites
		}
	}
	if red == nil {
		st.FallbackReason = fallback
		return c, st, nil
	}
	if volAfter >= volBefore {
		st.FallbackReason = fmt.Sprintf("no improvement (canonical volume %d -> %d)", volBefore, volAfter)
		return c, st, nil
	}
	after, err := decompose.Count(red)
	if err != nil {
		st.FallbackReason = fmt.Sprintf("rewritten circuit left the gate set: %v", err)
		return c, st, nil
	}
	st.After = after
	st.GatesAfter = len(red.Gates)
	st.CanonicalAfter = volAfter
	st.Applied = true
	return red, st, nil
}
