package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// clusteredSrc is a 6-qubit circuit with two CNOT clusters joined by one
// bridging CNOT, so a cap of 3 splits it into two parts and one seam.
const clusteredSrc = ".version 1.0\n.numvars 6\n.variables a b c d e f\n.begin\n" +
	"t2 a b\nt2 b c\nt2 a c\nt2 d e\nt2 e f\nt2 d f\n" +
	"t2 a b\nt2 b c\nt2 a c\nt2 d e\nt2 e f\nt2 d f\nt2 c d\n.end\n"

func TestCompilePartitionedEndpoint(t *testing.T) {
	s := startServer(t, testConfig())
	body := compileBody(t, clusteredSrc, "clustered", CompileOptions{Seed: 7, Iterations: 2000, PartitionQubits: 3})

	w := post(s, "/v1/compile", body)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Tqecd-Cache"); got != "miss" {
		t.Fatalf("first compile cache header %q, want miss", got)
	}
	var resp PartitionedResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Partition.Parts != 2 || resp.Partition.Seams != 1 || resp.Partition.PassThrough {
		t.Fatalf("partition %+v, want 2 parts / 1 seam", resp.Partition)
	}
	if resp.Seams.Routed != 1 || resp.Seams.Failed != 0 {
		t.Fatalf("seam routing %+v, want 1 routed", resp.Seams)
	}
	if resp.Volume <= 0 || len(resp.Parts) != 2 {
		t.Fatalf("volume %d, parts %d", resp.Volume, len(resp.Parts))
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(get(s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"stage:qubit partition", "stage:seam stitching"} {
		if snap.LatencyNS[stage].Count != 1 {
			t.Fatalf("%s histogram %+v, want one sample", stage, snap.LatencyNS[stage])
		}
	}

	// Repeat must hit the cache byte-for-byte.
	w2 := post(s, "/v1/compile", body)
	if got := w2.Header().Get("X-Tqecd-Cache"); got != "hit" {
		t.Fatalf("repeat cache header %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached partitioned payload differs from the fresh one")
	}

	// The partition cap is part of the content address.
	other := post(s, "/v1/compile", compileBody(t, clusteredSrc, "clustered",
		CompileOptions{Seed: 7, Iterations: 2000, PartitionQubits: 4}))
	if other.Code != 200 {
		t.Fatalf("cap-4 status %d: %s", other.Code, other.Body.String())
	}
	if other.Header().Get("X-Tqecd-Cache-Key") == w.Header().Get("X-Tqecd-Cache-Key") {
		t.Fatal("different partition caps share a content address")
	}
}

func TestCompilePartitionedServerDefault(t *testing.T) {
	cfg := testConfig()
	cfg.PartitionQubits = 3
	s := startServer(t, cfg)

	// Unset partition_qubits inherits the server default.
	w := post(s, "/v1/compile", compileBody(t, clusteredSrc, "clustered", CompileOptions{Seed: 7, Iterations: 2000}))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp PartitionedResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Partition.Parts != 2 || resp.Partition.MaxQubitsPerPart != 3 {
		t.Fatalf("server default not applied: %+v", resp.Partition)
	}

	// A negative request value forces the ordinary pipeline.
	w2 := post(s, "/v1/compile", compileBody(t, clusteredSrc, "clustered",
		CompileOptions{Seed: 7, Iterations: 2000, PartitionQubits: -1}))
	if w2.Code != 200 {
		t.Fatalf("opt-out status %d: %s", w2.Code, w2.Body.String())
	}
	var plain CompileResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &plain); err != nil {
		t.Fatalf("decode plain: %v", err)
	}
	if plain.Routing.Routed == 0 && plain.Volume == 0 {
		t.Fatalf("opt-out did not produce an ordinary compile: %s", w2.Body.String())
	}
	if w2.Header().Get("X-Tqecd-Cache-Key") == w.Header().Get("X-Tqecd-Cache-Key") {
		t.Fatal("partitioned and plain compiles share a content address")
	}
}
