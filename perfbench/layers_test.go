package main

import (
	"testing"

	"repro/internal/qc"
)

// TestTracedChildAccountsLayers runs the traced compile path of a child
// in process, partitioned and not, and expects a per-layer account read
// from the library's result.
func TestTracedChildAccountsLayers(t *testing.T) {
	spec, err := qc.BenchmarkByName("4gt4-v0_73")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c  *qc.Circuit
		cp int
	}{
		{c, 0},
		{clusteredCircuit(3), 6},
	} {
		j, err := newJob(tc.c, 1, tc.cp)
		if err != nil {
			t.Fatal(err)
		}
		j.Trace = true
		o := compileJob(j)
		if o.Err != "" || o.VerifyErr != "" {
			t.Fatalf("%s: err=%q verify=%q", j.Name, o.Err, o.VerifyErr)
		}
		l := o.Layers
		if l == nil || l.Compiles != 1 {
			t.Fatalf("%s: no layer account: %+v", j.Name, l)
		}
		for _, name := range []string{"preprocess", "bridge", "place", "route", "cachekey", "encode", "verify"} {
			if l.Busy[name] <= 0 {
				t.Errorf("%s: %s.busy_s = %v", j.Name, name, l.Busy[name])
			}
		}
		if l.PlaceAttempts == 0 || l.Loops == 0 || l.ICMCNOTs == 0 || l.Nets == 0 || l.AllocBytes == 0 || l.Mallocs == 0 {
			t.Errorf("%s: counts missing: %+v", j.Name, l)
		}
		if busy := l.Busy["place"] + l.Busy["route"]; tc.cp == 0 && busy > o.CompileS {
			t.Errorf("%s: placement and routing busy %.3fs, compile took %.3fs", j.Name, busy, o.CompileS)
		}
		if tc.cp > 0 && (l.Seams == 0 || l.Busy["partition"] <= 0 || l.Busy["stitch"] <= 0) {
			t.Errorf("%s: partition layers missing: %+v", j.Name, l)
		}
	}
}
