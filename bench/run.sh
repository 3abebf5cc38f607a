#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh compare A.json... -- B.json...
#
# Everything the go command and the benchmark write stays under
# .bench_build/ in the checkout: the build cache, GOPATH, temporary files,
# the go command's telemetry counters (kept under XDG_CONFIG_HOME), the
# binary and the results files. GOENV=off keeps the user's go env file
# out, and GOPROXY=off forbids downloads (the module needs none).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
