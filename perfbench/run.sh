#!/usr/bin/env bash
# Builds oracled and the benchmark from this checkout, then runs one
# benchmark run:
#
#   bash perfbench/run.sh --workload conn_uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run writes stay under .bench_build/, or under
# CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/oracled ]; then
	echo "run.sh: no oracled sources here; run it from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Keep every file the Go tool writes (build cache, module cache, config)
# inside the build directory, and never reach for the network: the module
# has no dependencies to download. Telemetry is off, so the go command
# starts no detached upload process that would outlive this run.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE=$out/go-cache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -o "$out/oracled" ./cmd/oracled
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --oracled "$out/oracled" --workdir "$out/run" "$@"
