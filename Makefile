# Build/verify entry points. `make ci` is the full gate: gofmt, vet, the
# repo-specific tqeclint analyzers (doccomment included — the docs gate),
# build, race-enabled tests, a replay of the committed fuzz corpora, a
# one-iteration bench-json smoke run that validates the BENCH_*.json
# schema round-trips, a bounded chaos soak of the resilient service
# layer (`make chaos`), and the benchmark module's own tests
# (`make perfbench-test`).

GO ?= go

# Minimum acceptable total statement coverage for `make cover`, in percent.
# Set ~2 points under the measured baseline so genuine regressions fail the
# gate without the threshold flaking on noise.
COVER_MIN ?= 79
COVER_OUT ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/tqec_cover.out

.PHONY: all build fmt vet lint test race cover fuzz-seeds bench bench-json bench-smoke check chaos perfbench-test ci

all: build

build:
	$(GO) build ./...

# Fail when any Go file, the benchmark module's included, is not
# gofmt-formatted; the listed files are the ones to run gofmt -w on.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmt: not gofmt-formatted:" >&2; echo "$$out" >&2; exit 1; fi

# The benchmark module is vetted too: `./...` stops at its go.mod.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# Run the in-tree static analyzers (internal/lint) over the whole module.
# Exits non-zero on any finding; see DESIGN.md for the enforced invariants.
# LINT_FLAGS adds e.g. -stats or -summary "$GITHUB_STEP_SUMMARY" in CI.
LINT_FLAGS ?=
lint:
	$(GO) run ./cmd/tqeclint $(LINT_FLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Total statement coverage with an enforced floor. The profile is written
# to $(COVER_OUT) so `go tool cover -html` can inspect it afterwards.
cover:
	$(GO) test -coverprofile='$(COVER_OUT)' ./...
	@$(GO) tool cover -func='$(COVER_OUT)' | tail -n 1
	@total=$$($(GO) tool cover -func='$(COVER_OUT)' | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t + 0 < min + 0) { printf "cover: total %.1f%% is below the %.1f%% floor\n", t, min; exit 1 } \
		printf "cover: total %.1f%% meets the %.1f%% floor\n", t, min }'

# Replay the committed fuzz seed corpora as plain regression tests. The
# corpus packages are discovered, not hard-coded: every package with a
# testdata/fuzz directory is replayed, and finding none is an error (it
# would mean the corpora were silently dropped).
fuzz-seeds:
	@pkgs=$$($(GO) list -f '{{if .Dir}}{{.ImportPath}} {{.Dir}}{{end}}' ./... | \
		while read -r pkg dir; do [ -d "$$dir/testdata/fuzz" ] && echo "$$pkg"; done; true); \
	if [ -z "$$pkgs" ]; then echo "fuzz-seeds: no committed fuzz corpora under testdata/fuzz" >&2; exit 1; fi; \
	echo "fuzz-seeds: replaying corpora in:" $$pkgs; \
	$(GO) test -run 'Fuzz' $$pkgs

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Regenerate the committed performance artifact (see BENCHMARKS.md). The
# partitioned section compiles the clustered workload whole and split so
# the artifact records whether partitioning pays on this machine.
bench-json:
	$(GO) run ./cmd/tqecbench -bench-out BENCH_seed.json -bench-iters 3 -bench-kernels -bench-partition 6

# One-iteration bench run into a scratch file: exercises the full
# measurement path and proves the JSON schema round-trips (-bench-out
# re-reads and validates what it wrote; the self-compare exercises the
# regression judge).
bench-smoke:
	$(GO) run ./cmd/tqecbench -bench-out $${TMPDIR:-/tmp}/BENCH_ci_smoke.json -bench-iters 1
	$(GO) run ./cmd/tqecbench -compare $${TMPDIR:-/tmp}/BENCH_ci_smoke.json $${TMPDIR:-/tmp}/BENCH_ci_smoke.json

# Differential and invariant verification (cmd/tqecverify): re-derives the
# pipeline's structural guarantees on the seed benchmarks plus randomized
# circuits, and cross-checks the determinism contracts (multi-chain
# placement, cached vs fresh compile bytes, bridged vs unbridged).
# `-bench all` sweeps every paper benchmark but takes much longer; CI
# runs the seed set.
check:
	$(GO) run ./cmd/tqecverify -bench seed -random 2 -timeout 10m

# Bounded chaos soak under the race detector: the service-layer fault
# drill (internal/harness TestChaosSoak) hammers a journal-backed server
# with crashes, torn-tail journal corruption, 5xx bursts and slow
# responses for CHAOS_SECONDS, then proves every accepted job terminal
# exactly once with byte-identical payloads.
CHAOS_SECONDS ?= 30
chaos:
	TQEC_CHAOS_SECONDS=$(CHAOS_SECONDS) $(GO) test -race -count=1 -run TestChaosSoak -timeout 10m ./internal/harness

# The benchmark under perfbench/ is a module of its own, so `./...` above
# never builds or tests it; a change that breaks a name it imports would
# otherwise only show when the benchmark runs.
perfbench-test:
	$(GO) -C perfbench test -count=1 ./...

ci: fmt vet lint build race cover fuzz-seeds check bench-smoke chaos perfbench-test
