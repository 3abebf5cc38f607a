#!/bin/sh
# Tier-1 CI gate (see README.md, "Testing & CI"). Every PR must keep this
# green:
#
#   1. go vet        — static checks
#   2. go build      — everything compiles
#   3. go test       — the full suite, including the differential solver
#                      harness (the delta schedule byte-identical to
#                      apply-every-operation; internal/core/differential_test.go),
#                      the differential batch-determinism tests, example smoke
#                      tests, and checked-in fuzz regression seeds
#   4. go test -race — the race detector, which is what makes the parallel
#                      batch engine's "identical to sequential" guarantee a
#                      verified property. The full run covers every package;
#                      -short covers only the packages whose tests actually
#                      exercise concurrency (the root package's batch engine
#                      and watch loop, internal/core's parallel differential
#                      tests, the content-addressed cache, the metrics/trace
#                      registries, the debounced watcher, and the gatord
#                      serving layer) — re-running the purely sequential
#                      packages under the race detector would duplicate step
#                      3 at ~10x the cost for no signal. CI runs the full
#                      sweep as its own job
#                      (see .github/workflows/ci.yml).
#   5. gofmt -l      — all sources formatted
#   6. self-check    — `gator -checks` over examples/buggyapp must exit 1
#                      and byte-match the checked-in expected output; the
#                      ordering checkers get the same treatment over
#                      examples/lifecycleapp via `-only "lifecycle-*"` (the
#                      glob also keeps driver pattern selection wired)
#   7. trace smoke   — `gator -trace -explain` over examples/buggyapp must
#                      exit 0: tracing and provenance stay wired end-to-end
#   8. server smoke  — `gatord -smoke` boots the daemon on a loopback
#                      port, runs one cold request and a session's
#                      patches — a body edit, an `order:` explain for an
#                      activity of the app (needs no provenance) and a
#                      second body edit that must stay warm — each
#                      byte-compared against local analysis, then
#                      exercises the telemetry surface —
#                      scrapes /metrics, validates it as Prometheus text
#                      with the in-repo parser, and requires a
#                      gatord_stage_duration_us series for every stage of
#                      the one vocabulary (queue, parse, lower, build,
#                      retract, rebuild, solve, render) — then drains and
#                      shuts down cleanly
#   9. benchmarks    — the zero-allocation guards: disabled tracing adds
#                      no allocations to the solver
#                      (TestTracingDisabledZeroAlloc, and
#                      BenchmarkSolveTracingDisabled re-asserts it), and the
#                      FindView rules' walk of a solved app's view
#                      hierarchies allocates nothing once warm
#                      (TestFindViewWalkZeroAlloc), and re-propagating a
#                      solved corpus app's values over its flow edges
#                      allocates nothing (TestPropagateZeroAlloc); the
#                      load path's guards: on the corpus apps, alite.Parse
#                      and gator.Load stay under their bytes per source
#                      byte and their allocations per KB of source, on the
#                      worst app and pooled (TestParseAllocationPerByte,
#                      TestLoadAllocationPerByte), and a variable-node hit
#                      or a duplicate flow edge allocates nothing
#                      (TestVarNodeAndFlowHitsZeroAlloc); one iteration of
#                      BenchmarkChecks (every checker over the 9 chain apps
#                      and Astrid, with allocations reported) keeps the
#                      checks layer's quick local benchmark compiling and
#                      running
#  10. ctx smoke     — `gatorbench -table all -ctx 1cfa` over one small
#                      corpus app: Tables 1 and 2 (averaged over source
#                      operations) and the oracle case study render under
#                      the context-sensitive solver, which stays sound (the
#                      command exits nonzero on any soundness violation)
#                      and stays wired into the CLI
#  11. gatorbench    — regenerate every benchmark record into a temporary
#                      directory (skipped with -short): a smoke run of each
#                      measurement that never overwrites the checked-in
#                      BENCH_*.json, so committing after a CI run cannot
#                      silently re-baseline a gate; scripts/benchdiff.sh
#                      checks the regenerated records nightly
#  12. bench module  — `go vet` and `go test` inside bench/, the repository
#                      benchmark's own Go module (see bench/README.md); the
#                      root module's ./... patterns never reach it, so an
#                      internal API change that breaks the benchmark fails
#                      here instead of at the next benchmark run
#
# Usage: scripts/ci.sh [-short]
#   -short trims the corpus-wide tests for a quick local signal.
set -eu

cd "$(dirname "$0")/.."

SHORT=""
if [ "${1:-}" = "-short" ]; then
    SHORT="-short"
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test $SHORT ./..."
go test $SHORT ./...

RACE_PKGS="./..."
if [ -n "$SHORT" ]; then
    # The packages with concurrent tests; see the step 4 note above.
    RACE_PKGS=". ./internal/core ./internal/cache ./internal/metrics ./internal/trace ./internal/watch ./internal/server ./internal/lifecycle ./internal/corpus"
fi
echo "== go test -race $SHORT $RACE_PKGS"
go test -race $SHORT $RACE_PKGS

echo "== gofmt -l"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== gator -checks self-check (examples/buggyapp)"
CHECKS_OUT=$(mktemp)
RECORDS=""
trap 'rm -rf "$CHECKS_OUT" $RECORDS' EXIT
if go run ./cmd/gator -checks examples/buggyapp > "$CHECKS_OUT"; then
    echo "self-check: expected exit 1 on the buggy app, got 0" >&2
    exit 1
fi
diff -u examples/buggyapp/expected_checks.txt "$CHECKS_OUT"

echo "== gator -checks ordering self-check (examples/lifecycleapp)"
if go run ./cmd/gator -checks -only "lifecycle-*" examples/lifecycleapp > "$CHECKS_OUT"; then
    echo "self-check: expected exit 1 on the lifecycle app, got 0" >&2
    exit 1
fi
diff -u examples/lifecycleapp/expected_checks.txt "$CHECKS_OUT"

echo "== ordering explain smoke (examples/lifecycleapp)"
go run ./cmd/gator -explain order:Main.onDestroy.onResume examples/lifecycleapp > /dev/null

echo "== trace + explain smoke (examples/buggyapp)"
go run ./cmd/gator -trace /dev/null -explain Main.onCreate.btn examples/buggyapp > /dev/null

echo "== gatord server smoke (examples/buggyapp)"
go run ./cmd/gatord -smoke examples/buggyapp

echo "== zero-allocation guards (tracing disabled, FindView walk, propagation)"
go test -run 'TestTracingDisabledZeroAlloc|TestFindViewWalkZeroAlloc|TestPropagateZeroAlloc' -bench BenchmarkSolveTracingDisabled -benchtime 1x ./internal/core
echo "== load-path guards (allocation per source byte, graph lookups)"
go test -run '^TestLoadAllocationPerByte$' .
go test -run '^TestParseAllocationPerByte$' ./internal/alite
go test -run '^TestVarNodeAndFlowHitsZeroAlloc$' ./internal/graph
echo "== checks-layer benchmark (one iteration)"
go test -run '^$' -bench '^BenchmarkChecks$' -benchtime 1x .

echo "== context-sensitivity smoke: every table (TippyTipper, 1cfa)"
go run ./cmd/gatorbench -table all -app TippyTipper -ctx 1cfa > /dev/null

if [ -z "$SHORT" ]; then
    RECORDS=$(mktemp -d)
    echo "== regenerating the benchmark records into $RECORDS"
    go run ./cmd/gatorbench -records "$RECORDS" > /dev/null
fi

echo "== bench module (vet + test)"
(cd bench && go vet ./... && go test ./...)

echo "== CI gate green"
