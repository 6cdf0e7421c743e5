#!/usr/bin/env bash
# Builds qservd and the benchmark from source, then runs one benchmark
# measurement. Run it from the repository root:
#
#   bash servebench/run.sh --workload read-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, both binaries, snapshots,
# logs, span files and result files.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# With telemetry on (the default "local" mode) the go command forks a
# detached telemetry process in its own session that outlives the build.
# Turning telemetry off in the private config directory stops that.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/qservd" ./cmd/qservd >&2
(cd servebench && go build -o "$out/servebench" .) >&2
exec "$out/servebench" -qservd "$out/qservd" -root "$root" -work "$out/servebench-run" "$@"
