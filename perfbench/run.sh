#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh -workload steady -seed 3 -seconds 10 -trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache and settings, the binary, and the
# trace files. GOPROXY=off and GOTOOLCHAIN=local keep the build offline.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
