#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload chip --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build: the Go build cache, the binary, rendered inputs and traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root holds no eedtree source tree to benchmark" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-path" "$build/config" "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
