package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/qc"
	"repro/internal/resilience"
	"repro/internal/route"
	"repro/tqec"
)

// CompileRequest is the JSON body of POST /v1/compile and POST /v1/jobs.
// Exactly one of Bench or Real selects the input circuit.
type CompileRequest struct {
	// Bench names one of the paper's RevLib benchmarks.
	Bench string `json:"bench,omitempty"`
	// Real is inline RevLib .real source text.
	Real string `json:"real,omitempty"`
	// Name labels a Real circuit (default "circuit"); ignored for Bench.
	Name string `json:"name,omitempty"`
	// Options tune the compilation.
	Options CompileOptions `json:"options"`
}

// CompileOptions is the request-facing subset of tqec.Options. Zero values
// mean the server's defaults (the journal-version flow).
type CompileOptions struct {
	// Seed drives all randomized stages; compilation is deterministic
	// for a fixed seed.
	Seed int64 `json:"seed"`
	// Iterations overrides the SA move budget (0 = auto).
	Iterations int `json:"iterations,omitempty"`
	// Chains sets the number of cooperating SA chains (0 = auto).
	Chains int `json:"chains,omitempty"`
	// NoBridging disables iterative bridging (the Table V ablation).
	NoBridging bool `json:"no_bridging,omitempty"`
	// NoZX disables the ZX-calculus pre-compression pass (the
	// paper-faithful ablation).
	NoZX bool `json:"no_zx,omitempty"`
	// Conference disables primal-group clustering (the conference
	// version [36]).
	Conference bool `json:"conference,omitempty"`
	// NoBoxes skips distillation-box attachment.
	NoBoxes bool `json:"no_boxes,omitempty"`
	// StrictRouting turns degraded routing into a compile error.
	StrictRouting bool `json:"strict_routing,omitempty"`
	// PartitionQubits caps the qubits per partition: a positive value
	// compiles through the partitioned pipeline (sub-circuits stitched
	// into time slabs, seam CNOTs routed across slab gaps) and responds
	// with the partitioned payload shape. 0 inherits the server's
	// -partition-qubits default; a negative value forces the ordinary
	// single-slab compile even when the server has a default.
	PartitionQubits int `json:"partition_qubits,omitempty"`
	// TimeoutMS bounds this compilation in milliseconds (0 = the
	// server's default; values above the server's maximum are clamped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// compileTask is a parsed, validated compile request ready for the worker
// pool: the circuit, the full pipeline options, the content address, and
// the effective deadline.
type compileTask struct {
	circuit *qc.Circuit
	opts    tqec.Options
	key     string
	timeout time.Duration
}

// parseLimits bundles the server-side request validation knobs so the
// parser's signature survives growing new ones.
type parseLimits struct {
	// defaultTimeout applies when the request sets no timeout_ms.
	defaultTimeout time.Duration
	// maxTimeout clamps request-supplied timeouts.
	maxTimeout time.Duration
	// defaultPartition applies when the request leaves partition_qubits
	// at 0 (negative request values force partitioning off).
	defaultPartition int
}

// parseCompileRequest decodes and validates a request body into a
// compileTask, computing its content address. The returned *apiError is
// ready to serve on failure.
func parseCompileRequest(r io.Reader, lim parseLimits) (*compileTask, *apiError) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req CompileRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest(fmt.Sprintf("invalid request body: %v", err))
	}
	// Reject trailing garbage so "two JSON documents" is not silently
	// half-accepted.
	if dec.More() {
		return nil, badRequest("invalid request body: trailing data after JSON object")
	}
	return buildCompileTask(&req, lim)
}

// buildCompileTask turns a decoded request into a runnable task.
func buildCompileTask(req *CompileRequest, lim parseLimits) (*compileTask, *apiError) {
	circuit, aerr := loadCircuit(req)
	if aerr != nil {
		return nil, aerr
	}
	opts := requestOptions(req.Options)
	cap := req.Options.PartitionQubits
	if cap == 0 {
		cap = lim.defaultPartition
	}
	if cap > 0 {
		opts.Partition = partition.Options{MaxQubitsPerPart: cap, Seed: req.Options.Seed}
	}
	key, err := tqec.CacheKey(circuit, opts)
	if err != nil {
		return nil, badRequest(fmt.Sprintf("circuit rejected: %v", err))
	}
	timeout := lim.defaultTimeout
	if req.Options.TimeoutMS > 0 {
		timeout = time.Duration(req.Options.TimeoutMS) * time.Millisecond
	}
	if lim.maxTimeout > 0 && (timeout <= 0 || timeout > lim.maxTimeout) {
		timeout = lim.maxTimeout
	}
	return &compileTask{circuit: circuit, opts: opts, key: key, timeout: timeout}, nil
}

// loadCircuit resolves the request's circuit source.
func loadCircuit(req *CompileRequest) (*qc.Circuit, *apiError) {
	switch {
	case req.Bench != "" && req.Real != "":
		return nil, badRequest("set either bench or real, not both")
	case req.Bench != "":
		spec, err := qc.BenchmarkByName(req.Bench)
		if err != nil {
			return nil, &apiError{Status: 404, Body: ErrorBody{Message: fmt.Sprintf("unknown benchmark %q", req.Bench)}}
		}
		c, err := spec.Generate()
		if err != nil {
			return nil, badRequest(fmt.Sprintf("benchmark %q: %v", req.Bench, err))
		}
		return c, nil
	case req.Real != "":
		name := req.Name
		if name == "" {
			name = "circuit"
		}
		c, err := qc.ParseReal(name, strings.NewReader(req.Real))
		if err != nil {
			return nil, badRequest(fmt.Sprintf("real source rejected: %v", err))
		}
		if err := c.Validate(); err != nil {
			return nil, badRequest(fmt.Sprintf("real circuit invalid: %v", err))
		}
		return c, nil
	default:
		return nil, badRequest("select a circuit with bench or real")
	}
}

// requestOptions maps the wire options onto the full pipeline options,
// mirroring the tqecc CLI's flag semantics.
func requestOptions(o CompileOptions) tqec.Options {
	opts := tqec.DefaultOptions()
	opts.Place.Seed = o.Seed
	opts.Place.Iterations = o.Iterations
	opts.Place.Chains = o.Chains
	opts.Bridging = !o.NoBridging
	opts.ZX = !o.NoZX
	opts.PrimalGroups = !o.Conference
	opts.NoBoxes = o.NoBoxes
	opts.StrictRouting = o.StrictRouting
	return opts
}

// CompileResponse is the JSON body of a successful compile. Every field is
// deterministic for a (circuit, options) pair — wall-clock timings are
// deliberately excluded — so a cached payload is byte-identical to a fresh
// compilation's and responses can be content-addressed.
type CompileResponse struct {
	// Name is the compiled circuit's name.
	Name string `json:"name"`
	// Key is the compilation's content address (hex SHA-256).
	Key string `json:"key"`
	// Dims are the final W/H/D extents.
	Dims DimsBody `json:"dims"`
	// Volume is W×H×D.
	Volume int `json:"volume"`
	// CanonicalVolume is the canonical-form volume of the same circuit.
	CanonicalVolume int `json:"canonical_volume"`
	// BoxVolume is the lower-bound distillation box volume.
	BoxVolume int `json:"box_volume"`
	// CompressionRatio is (canonical + boxes) / final volume.
	CompressionRatio float64 `json:"compression_ratio"`
	// Degraded reports graceful routing degradation.
	Degraded bool `json:"degraded"`
	// PlacementAttempts counts SA placements: always 1.
	PlacementAttempts int `json:"placement_attempts"`
	// ICM summarizes the ICM conversion.
	ICM ICMBody `json:"icm"`
	// Netlist summarizes modularization.
	Netlist NetlistBody `json:"netlist"`
	// Bridging summarizes the iterative bridging stage.
	Bridging BridgingBody `json:"bridging"`
	// Placement summarizes the SA placement.
	Placement PlacementBody `json:"placement"`
	// Routing summarizes the net routing stage.
	Routing RoutingBody `json:"routing"`
	// Counters holds the non-zero fault-tolerance event counters.
	Counters map[string]int `json:"counters,omitempty"`
}

// DimsBody is a W/H/D extent triple.
type DimsBody struct {
	// W is the width.
	W int `json:"w"`
	// H is the height.
	H int `json:"h"`
	// D is the depth (time axis).
	D int `json:"d"`
}

// ICMBody summarizes an ICM circuit (Table I statistics).
type ICMBody struct {
	// Lines is the number of qubit lines.
	Lines int `json:"lines"`
	// CNOTs is the number of CNOT gates.
	CNOTs int `json:"cnots"`
	// NumY counts |Y⟩ state injections.
	NumY int `json:"num_y"`
	// NumA counts |A⟩ state injections.
	NumA int `json:"num_a"`
	// TGroups counts T-gate teleportation blocks.
	TGroups int `json:"t_groups"`
}

// NetlistBody summarizes the modularized geometric description.
type NetlistBody struct {
	// Modules is the number of dual-loop modules.
	Modules int `json:"modules"`
	// Loops is the number of dual loops.
	Loops int `json:"loops"`
}

// BridgingBody summarizes iterative bridging.
type BridgingBody struct {
	// Structures is the number of bridged structures.
	Structures int `json:"structures"`
	// Merges is the number of bridge merges performed.
	Merges int `json:"merges"`
	// Nets is the number of inter-structure nets to route.
	Nets int `json:"nets"`
}

// PlacementBody summarizes the SA placement.
type PlacementBody struct {
	// Nodes is the number of placed super-module nodes.
	Nodes int `json:"nodes"`
	// Tiers is the number of 2.5D tiers.
	Tiers int `json:"tiers"`
	// WireLength is the placement's half-perimeter wirelength.
	WireLength int `json:"wire_length"`
}

// RoutingBody summarizes net routing.
type RoutingBody struct {
	// Routed is the number of successfully routed nets.
	Routed int `json:"routed"`
	// FirstPass is how many nets routed in the first negotiation pass.
	FirstPass int `json:"first_pass"`
	// RippedUp counts rip-up-and-reroute events.
	RippedUp int `json:"ripped_up"`
	// WireCells is the total routed wire volume in cells.
	WireCells int `json:"wire_cells"`
	// Fallback counts nets rescued by the whole-world fallback router.
	Fallback int `json:"fallback"`
	// Failed counts nets left unrouted.
	Failed int `json:"failed"`
}

// EncodeResult renders a compilation result as the service's deterministic
// response payload. It is exported so tests (and clients embedding the
// pipeline) can compare a served body byte-for-byte against a direct
// tqec.CompileContext run.
func EncodeResult(key string, res *tqec.Result) ([]byte, error) {
	resp := CompileResponse{
		Name:              res.ICM.Name,
		Key:               key,
		Dims:              DimsBody{W: res.Dims.W, H: res.Dims.H, D: res.Dims.D},
		Volume:            res.Volume,
		CanonicalVolume:   res.CanonicalVolume,
		BoxVolume:         res.BoxVolume,
		CompressionRatio:  res.CompressionRatio(),
		Degraded:          res.Degraded,
		PlacementAttempts: res.PlacementAttempts,
		Netlist: NetlistBody{
			Modules: len(res.Netlist.Modules),
			Loops:   len(res.Netlist.Loops),
		},
		Bridging: BridgingBody{
			Structures: len(res.Bridging.Structures),
			Merges:     res.Bridging.Merges,
			Nets:       len(res.Bridging.Nets),
		},
		Placement: PlacementBody{
			Nodes:      res.Clustering.Stats().Nodes,
			Tiers:      res.Placement.Tiers,
			WireLength: res.Placement.WireLength,
		},
		Routing:  routingBody(res.Routing),
		Counters: nonZeroCounters(res.Breakdown),
	}
	s := res.ICM.Stats()
	resp.ICM = ICMBody{Lines: s.Lines, CNOTs: s.CNOTs, NumY: s.NumY, NumA: s.NumA, TGroups: s.TGroups}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return b, nil
}

// PartitionedResponse is the JSON body of a partitioned compile
// (partition_qubits > 0). Like CompileResponse it is deterministic for a
// (circuit, options) pair, so partitioned payloads are content-addressed
// and cached byte-for-byte identically.
type PartitionedResponse struct {
	// Name is the compiled circuit's name.
	Name string `json:"name"`
	// Key is the compilation's content address (hex SHA-256).
	Key string `json:"key"`
	// Dims are the combined W/H/D extents (slabs, seam routes and pins).
	Dims DimsBody `json:"dims"`
	// Volume is W×H×D of the combined extent.
	Volume int `json:"volume"`
	// CanonicalVolume sums the parts' canonical-form volumes.
	CanonicalVolume int `json:"canonical_volume"`
	// BoxVolume sums the parts' lower-bound distillation box volumes.
	BoxVolume int `json:"box_volume"`
	// CompressionRatio is (canonical + boxes) / final volume.
	CompressionRatio float64 `json:"compression_ratio"`
	// Degraded reports degraded routing in any part or the stitching.
	Degraded bool `json:"degraded"`
	// PlacementAttempts sums the parts' SA placements, one per part that
	// had anything to lay out.
	PlacementAttempts int `json:"placement_attempts"`
	// Partition summarizes the qubit cut.
	Partition PartitionBody `json:"partition"`
	// Parts summarizes each compiled sub-circuit, in part order.
	Parts []PartBody `json:"parts"`
	// Seams summarizes the seam-net stitching routes.
	Seams RoutingBody `json:"seams"`
	// Counters holds the non-zero fault-tolerance event counters.
	Counters map[string]int `json:"counters,omitempty"`
}

// PartitionBody summarizes the qubit-interaction-graph cut.
type PartitionBody struct {
	// MaxQubitsPerPart is the effective per-part qubit cap.
	MaxQubitsPerPart int `json:"max_qubits_per_part"`
	// Parts is the number of sub-circuits.
	Parts int `json:"parts"`
	// Seams is the number of cut CNOTs.
	Seams int `json:"seams"`
	// Largest is the largest part's qubit count.
	Largest int `json:"largest"`
	// PassThrough marks a circuit that fit the cap and never split.
	PassThrough bool `json:"pass_through,omitempty"`
}

// PartBody summarizes one compiled sub-circuit.
type PartBody struct {
	// Qubits is the part's qubit count (source-circuit qubits).
	Qubits int `json:"qubits"`
	// Gates is the part's gate count (seam CNOTs belong to no part).
	Gates int `json:"gates"`
	// Volume is the part's standalone compiled volume (0 for a gateless
	// seam-only part).
	Volume int `json:"volume"`
	// Degraded reports the part compiled with degraded routing.
	Degraded bool `json:"degraded,omitempty"`
}

// EncodePartitionedResult renders a partitioned compilation as the
// service's deterministic response payload (the partitioned counterpart of
// EncodeResult). cap is the per-part qubit cap the compile ran with.
func EncodePartitionedResult(key, name string, cap int, res *tqec.PartitionedResult) ([]byte, error) {
	parts, seams, largest := res.Partition.Stats()
	resp := PartitionedResponse{
		Name:              name,
		Key:               key,
		Dims:              DimsBody{W: res.Dims.W, H: res.Dims.H, D: res.Dims.D},
		Volume:            res.Volume,
		CanonicalVolume:   res.CanonicalVolume,
		BoxVolume:         res.BoxVolume,
		CompressionRatio:  res.CompressionRatio(),
		Degraded:          res.Degraded,
		PlacementAttempts: res.PlacementAttempts,
		Partition: PartitionBody{
			MaxQubitsPerPart: cap,
			Parts:            parts,
			Seams:            seams,
			Largest:          largest,
			PassThrough:      res.PassThrough,
		},
		Counters: nonZeroCounters(res.Breakdown),
	}
	for i, part := range res.Parts {
		pb := PartBody{
			Qubits: len(res.Partition.Parts[i].Qubits),
			Gates:  res.Partition.Parts[i].Circuit.NumGates(),
		}
		if part != nil {
			pb.Volume = part.Volume
			pb.Degraded = part.Degraded
		}
		resp.Parts = append(resp.Parts, pb)
	}
	if res.SeamRouting != nil {
		resp.Seams = routingBody(res.SeamRouting)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encode partitioned result: %w", err)
	}
	return b, nil
}

// routingBody summarizes a routing result.
func routingBody(r *route.Result) RoutingBody {
	return RoutingBody{
		Routed:    len(r.Routes),
		FirstPass: r.FirstPassRouted,
		RippedUp:  r.RippedUp,
		WireCells: r.WireCells(),
		Fallback:  len(r.FallbackNets),
		Failed:    len(r.Failed),
	}
}

// nonZeroCounters returns b's non-zero event counters, or nil when there
// are none (the payload then omits the field).
func nonZeroCounters(b *metrics.Breakdown) map[string]int {
	var out map[string]int
	for _, name := range b.Counters() {
		if n := b.Counter(name); n != 0 {
			if out == nil {
				out = map[string]int{}
			}
			out[name] = n
		}
	}
	return out
}

// ErrorBody is the structured JSON error payload: the failed pipeline
// stage, the matching sentinel of the faults taxonomy, and whether the
// failure stems from a degraded compilation.
type ErrorBody struct {
	// Stage is the pipeline stage that failed, when known.
	Stage string `json:"stage,omitempty"`
	// Sentinel names the matched faults-taxonomy sentinel, when any.
	Sentinel string `json:"sentinel,omitempty"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// Degraded marks failures of degraded or unroutable compilations.
	Degraded bool `json:"degraded,omitempty"`
}

// ErrorResponse wraps ErrorBody the way error responses are framed on the
// wire: {"error": {...}}.
type ErrorResponse struct {
	// Error is the structured failure description.
	Error ErrorBody `json:"error"`
}

// apiError pairs an HTTP status with its wire body and an optional
// Retry-After hint for backpressure responses.
type apiError struct {
	Status     int
	Body       ErrorBody
	RetryAfter time.Duration
}

// badRequest is a 400 with a bare message.
func badRequest(msg string) *apiError {
	return &apiError{Status: 400, Body: ErrorBody{Message: msg}}
}

// Sentinels for queue overload and shutdown, mapped to 429/503 by
// compileError.
var (
	errOverloaded = errors.New("job queue full")
	errDraining   = errors.New("server draining")
)

// compileError maps a pipeline or queueing error onto the structured wire
// error: stage tag from StageError, sentinel from the faults taxonomy, and
// an HTTP status (429 overload, 503 draining, 504 deadline, 422
// unsatisfiable or empty, 500 internal).
func compileError(err error) *apiError {
	ae := &apiError{Status: 500, Body: ErrorBody{Message: err.Error()}}
	if se, ok := tqec.AsStageError(err); ok {
		ae.Body.Stage = string(se.Stage)
	}
	switch {
	case errors.Is(err, errOverloaded):
		ae.Status = 429
	case errors.Is(err, errDraining):
		ae.Status = 503
	case errors.Is(err, resilience.ErrBreakerOpen):
		ae.Status = 503
		ae.Body.Sentinel = "breaker_open"
	case faults.IsCancellation(err):
		ae.Status = 504
		ae.Body.Sentinel = "canceled"
	case errors.Is(err, faults.ErrUnroutable):
		ae.Status = 422
		ae.Body.Sentinel = "unroutable"
		ae.Body.Degraded = true
	case errors.Is(err, faults.ErrPlacementInvalid):
		ae.Status = 422
		ae.Body.Sentinel = "placement_invalid"
	case errors.Is(err, faults.ErrEmpty):
		ae.Status = 422
		ae.Body.Sentinel = "empty"
	case errors.Is(err, faults.ErrPanic):
		ae.Body.Sentinel = "panic"
	case errors.Is(err, faults.ErrInvariant):
		ae.Body.Sentinel = "invariant"
	case errors.Is(err, faults.ErrDegraded):
		ae.Status = 422
		ae.Body.Sentinel = "degraded"
		ae.Body.Degraded = true
	}
	return ae
}
