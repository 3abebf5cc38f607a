#!/bin/sh
# Benchmark regression gate (the nightly workflow's first job; also usable
# locally). Regenerates every tracked benchmark record into OUTDIR (default:
# a temp directory) with `gatorbench -records` and checks the whole set
# against the checked-in BENCH_*.json in one cmd/benchdiff run, which
# applies the gates each baseline metric carries and reports every failure
# before it exits. README.md ("Testing & CI") describes the record format;
# `go run ./cmd/benchdiff . .` prints every metric and gate.
#
# Usage: scripts/benchdiff.sh [OUTDIR]
#   Pass an OUTDIR to keep the regenerated records around (CI uploads them
#   as artifacts when the gate fails).
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-}"
if [ -z "$OUT" ]; then
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT
else
    mkdir -p "$OUT"
fi

echo "== regenerating benchmark records into $OUT"
go run ./cmd/gatorbench -table 2 -records "$OUT" > /dev/null

echo "== checking them against the checked-in records"
go run ./cmd/benchdiff . "$OUT"

echo "== benchdiff gate green"
