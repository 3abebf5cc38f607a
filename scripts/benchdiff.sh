#!/bin/sh
# Benchmark regression gate (the nightly workflow's first job; also usable
# locally). Regenerates the tracked benchmark records into OUTDIR (default:
# a temp directory) and diffs them against the checked-in BENCH_*.json with
# cmd/benchdiff, failing on >15% regression — or, for the incremental
# record, on a warm/cold speedup below 5x, for the server record, on a
# warm-session speedup below 3x, and for the solver record, on an
# optimized-vs-reference speedup below 2x or a >64-unit incremental speedup
# below 5x. The precision record (BENCH_7.json, gatorbench -precjson) is
# gated tighter: any soundness violation fails, a per-mode solution/oracle
# ratio may not grow more than 5%, and the polymorphic-helper stressor must
# stay strictly smaller under context sensitivity. The observability
# record (BENCH_8.json, gatorbench -obsjson) fails when the telemetry
# layer's request-latency overhead exceeds its 5% ceiling. The
# lifecycle-recall record (BENCH_10.json, gatorbench -lifejson) is also
# floor-gated: every ordering checker must keep recall >= 0.9 over the
# synthesized scenario pack and produce zero findings on the clean twins
# (any clean-twin finding is a false positive by construction).
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
go run ./cmd/gatorbench -table 2 -benchjson "$OUT/BENCH_2.json" -incjson "$OUT/BENCH_4.json" \
    -servejson "$OUT/BENCH_5.json" -solvejson "$OUT/BENCH_6.json" \
    -precjson "$OUT/BENCH_7.json" -obsjson "$OUT/BENCH_8.json" \
    -lifejson "$OUT/BENCH_10.json" > /dev/null

echo "== diff vs checked-in records (threshold 15%; precision ratio 5%; telemetry overhead 5%)"
go run ./cmd/benchdiff BENCH_2.json "$OUT/BENCH_2.json"
go run ./cmd/benchdiff BENCH_4.json "$OUT/BENCH_4.json"
go run ./cmd/benchdiff BENCH_5.json "$OUT/BENCH_5.json"
go run ./cmd/benchdiff BENCH_6.json "$OUT/BENCH_6.json"
go run ./cmd/benchdiff BENCH_7.json "$OUT/BENCH_7.json"
go run ./cmd/benchdiff BENCH_8.json "$OUT/BENCH_8.json"
go run ./cmd/benchdiff BENCH_10.json "$OUT/BENCH_10.json"

echo "== benchdiff gate green"
