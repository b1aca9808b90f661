#!/usr/bin/env bash
# Builds the benchmark and tipsyd from this checkout's sources, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Build outputs, the Go build
# cache and traced-run output all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root" && go build -o "$out/bin/tipsyd" ./cmd/tipsyd) >&2
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -tipsyd "$out/bin/tipsyd" -out "$out/perfbench" "$@"
