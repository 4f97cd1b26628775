#!/usr/bin/env bash
# Builds the benchmark and the tqecd daemon from the checkout's sources,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload compile-mix --seed 1 --seconds 20 --trace 0
#
# Binaries, Go's build cache and its temporary files all stay under
# .bench_build, so a run reads and writes nothing outside the checkout
# besides the Go toolchain it reads.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/tqecd" repro/cmd/tqecd
exec "$out/perfbench" --tqecd "$out/tqecd" "$@"
