#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run it from the root
# of a checkout:
#
#   bash _perfbench/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the Go build cache, the binary, scratch caches,
# spans) stays under .bench_build/ in the checkout. The build fails, and the
# script exits non-zero without a result, when the checkout around the
# benchmark directory is missing.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config"

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
