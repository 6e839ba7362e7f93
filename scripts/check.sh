#!/bin/sh
# check.sh — the repository's CI gate: formatting, vet, build, and the
# full test suite under the race detector. Run from the repo root:
#
#   ./scripts/check.sh        (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l cmd internal examples scripts perfbench bench_test.go fleet_bench_test.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# perfbench is its own module (it replaces repro with ../), so ./... above
# never reaches it; vetting it here catches an API change that would break
# the benchmark's build.
(cd perfbench && go vet ./...)

# Deeper linters run when installed; CI images without them still get the
# vet gate above, so the script works offline and in the minimal container.
echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck not installed; skipping"
fi

echo "== go build =="
go build ./...
(cd perfbench && go build -o /dev/null .)

echo "== go test -race =="
# -timeout turns a hung test (e.g. a scan that stopped honoring its
# deadline) into a gate failure instead of a stalled CI job.
go test -race -timeout 10m ./...

echo "== go test -race -count=3 (concurrent first use) =="
# A lazily opened app decodes a class's members on the first lookup, and
# the parallel stages share one overlay: repeat the concurrency tests so
# more interleavings of those first uses reach the race detector.
go test -race -count=3 -timeout 10m -run 'Concurrent' ./internal/baselayer ./internal/core

echo "== go test -race (persistent cache on) =="
# The differential cache harness normally runs against throwaway temp
# dirs; NCHECKER_TEST_CACHEDIR points it at one shared on-disk store so
# the cache-sensitive packages also pass with a real, reused directory.
cachedir=$(mktemp -d)
trap 'rm -rf "$cachedir"' EXIT
NCHECKER_TEST_CACHEDIR="$cachedir" go test -race -timeout 10m \
    ./internal/cachestore ./internal/checkers ./internal/experiments

echo "== engine-vs-oracle differential =="
# The demand-driven engine is the only scan traversal; the whole-program
# oracle (checkers.OracleOptions, test binaries only) is the reference it
# must match byte for byte over the goldens, the corpus and padded apps,
# at batch concurrency 1/2/8, with the cache off, cold and warm.
go test -count=1 -timeout 10m -run 'Differential|Validated|Targeted' \
    ./internal/checkers ./internal/experiments

echo "== CLI batch-concurrency differential =="
# End to end through the CLI: -workers 1 and -workers 4 (apps scanned at
# once) over the same generated app containers (padded so the closure
# really skips classes) must print byte-identical reports and exit alike.
diffdir=$(mktemp -d)
trap 'rm -rf "$cachedir" "$diffdir"' EXIT
go build -o "$diffdir/nchecker" ./cmd/nchecker
go run ./cmd/appgen -out "$diffdir/corpus" -n 24 -pad 40 >/dev/null
w1_status=0
"$diffdir/nchecker" -workers 1 "$diffdir"/corpus/*.apk >"$diffdir/w1.txt" || w1_status=$?
w4_status=0
"$diffdir/nchecker" -workers 4 "$diffdir"/corpus/*.apk >"$diffdir/w4.txt" || w4_status=$?
if [ "$w1_status" -ne "$w4_status" ]; then
    echo "batch-concurrency differential: exit codes differ (-workers 1: $w1_status, -workers 4: $w4_status)" >&2
    exit 1
fi
cmp "$diffdir/w1.txt" "$diffdir/w4.txt"

echo "== CLI -timings batch-concurrency differential =="
# Every -timings counter line must render and be deterministic: with
# durations masked, -workers 1 and -workers 4 print identical -timings
# text (stderr under -json) with no cache, a cold cache (a fresh directory
# per side), the same caches warm, and -validate.
mask_timings() {
    sed -E 's/[0-9.]+(µs|ms|s|ns)//g; s/ +/ /g' "$1"
}
for mode in nocache cold warm validate; do
    for w in 1 4; do
        case $mode in
        nocache) set -- ;;
        cold | warm) set -- -cache "$diffdir/cache.w$w" ;;
        validate) set -- -validate ;;
        esac
        timings_status=0
        "$diffdir/nchecker" -json -timings -workers "$w" "$@" "$diffdir"/corpus/*.apk \
            2>"$diffdir/timings.raw" >/dev/null || timings_status=$?
        if [ "$timings_status" -gt 1 ]; then
            echo "timings batch-concurrency differential ($mode, -workers $w): exit $timings_status" >&2
            cat "$diffdir/timings.raw" >&2
            exit 1
        fi
        mask_timings "$diffdir/timings.raw" >"$diffdir/timings.$mode.w$w"
    done
    if ! cmp "$diffdir/timings.$mode.w1" "$diffdir/timings.$mode.w4"; then
        echo "timings batch-concurrency differential ($mode): -workers 1 and -workers 4 differ" >&2
        diff "$diffdir/timings.$mode.w1" "$diffdir/timings.$mode.w4" | head -n 20 >&2
        exit 1
    fi
done

echo "== validate smoke =="
# -validate must stamp verdicts (at least one dynamically confirmed
# warning on the buggy corpus) without changing the warning set or the
# exit code.
validate_status=0
"$diffdir/nchecker" -validate "$diffdir"/corpus/*.apk >"$diffdir/validated.txt" || validate_status=$?
if [ "$w1_status" -ne "$validate_status" ]; then
    echo "validate smoke: exit codes differ (plain=$w1_status validate=$validate_status)" >&2
    exit 1
fi
if ! grep -A1 "^Dynamic validation$" "$diffdir/validated.txt" | grep -q "confirmed"; then
    echo "validate smoke: no confirmed verdict in the validated reports" >&2
    exit 1
fi
if grep -q "Dynamic validation" "$diffdir/w1.txt"; then
    echo "validate smoke: verdicts leaked into the unvalidated reports" >&2
    exit 1
fi

echo "== checker ablation smoke =="
# -checkers=5-8 must report exactly the full run's warnings for the new
# families and nothing else: per-app per-cause summary counts filtered
# to family 5-8 causes must be byte-identical between the two runs.
newfam='offline-state-no-recovery|stale-connectivity-check|cleartext-endpoint|hardcoded-ip-endpoint|aggressive-retry-loop|retry-storm'
"$diffdir/nchecker" -summary "$diffdir"/corpus/*.apk >"$diffdir/fullsum.txt" || true
"$diffdir/nchecker" -summary -checkers=5-8 "$diffdir"/corpus/*.apk >"$diffdir/ablated.txt" || true
grep -E "$newfam" "$diffdir/fullsum.txt" >"$diffdir/full58.txt" || true
grep -E "$newfam" "$diffdir/ablated.txt" >"$diffdir/ablated58.txt" || true
if ! cmp "$diffdir/full58.txt" "$diffdir/ablated58.txt"; then
    echo "checker ablation: family 5-8 warnings differ between -checkers=5-8 and the full run" >&2
    exit 1
fi
if grep -vE "$newfam" "$diffdir/ablated.txt" | grep -vE '^== ' | grep -q .; then
    echo "checker ablation: -checkers=5-8 emitted warnings outside families 5-8" >&2
    exit 1
fi

echo "== examples smoke =="
# `go build ./...` compiles the example programs; this runs each one, so
# an example that stops working (autofix and casestudies scan through
# core.ScanApp) fails the gate. Each must exit 0.
for ex in examples/*; do
    [ -d "$ex" ] || continue
    if ! go run "./$ex" >/dev/null; then
        echo "examples smoke: $ex exited non-zero" >&2
        exit 1
    fi
done

echo "== padded-scale bench smoke =="
# One iteration per cell keeps the gate fast while proving the three
# BenchmarkScanPadded{1x,10x,100x} cells, the large-apps open and
# byte-scan harness (BenchmarkOpenPadded, BenchmarkScanBytesPadded), the
# corpus byte scan and per-scan call graph (BenchmarkScanBytesCorpus,
# BenchmarkCallGraphOverlay), and the per-method body and kernel layer
# (BenchmarkMethodKernelsCorpus) still run.
go test -run='^$' -bench='^Benchmark(ScanPadded|OpenPadded$|ScanBytesPadded$|ScanBytesCorpus$|CallGraphOverlay$|MethodKernelsCorpus$)' -benchtime=1x -timeout 10m .

echo "== cold-scan allocation smoke =="
# Regenerates BENCH_cold.json's smoke section (-short scans the first
# coldSmokeApps corpus apps) into an artifacts dir — BENCH_COLD_OUT keeps
# the committed file untouched — then gates allocs/op against the
# committed smoke entry: a >15% regression fails. CPU and allocation
# pprof profiles land beside the regenerated file for triage.
benchart="${BENCH_ARTIFACTS:-bench-artifacts}"
mkdir -p "$benchart"
committed=$(grep -o '"allocs_per_op": *[0-9]*' BENCH_cold.json | tail -n 1 | tr -dc 0-9)
if [ -z "$committed" ]; then
    echo "cold-scan smoke: BENCH_cold.json has no smoke allocs_per_op entry" >&2
    exit 1
fi
BENCH_COLD_OUT="$benchart/BENCH_cold.json" go test -run='^$' -short \
    -bench='^BenchmarkScanCorpusCold$' -benchtime=3x -benchmem -timeout 10m \
    -cpuprofile "$benchart/cold.cpu.pprof" -memprofile "$benchart/cold.mem.pprof" \
    -o "$benchart/bench.test" .
fresh=$(grep -o '"allocs_per_op": *[0-9]*' "$benchart/BENCH_cold.json" | tail -n 1 | tr -dc 0-9)
echo "cold-scan smoke allocs/op: committed=$committed fresh=$fresh (artifacts in $benchart/)"
if [ "$fresh" -gt $((committed * 115 / 100)) ]; then
    echo "cold-scan smoke: allocs/op regressed >15% ($committed -> $fresh);" \
        "profiles in $benchart/ — if intentional, regenerate BENCH_cold.json" \
        "with: go test -run='^\$' -short -bench='^BenchmarkScanCorpusCold\$' -benchmem ." >&2
    exit 1
fi

echo "== serve smoke =="
# End-to-end over a real socket: start `nchecker serve` on an ephemeral
# port, have scripts/servesmoke POST a fixture app, poll the report, POST
# it again to /scansync for byte-identical report text, and assert
# /healthz and the /metrics scan counters; then a clean SIGTERM drain must
# exit 0.
smokedir=$(mktemp -d)
trap 'rm -rf "$cachedir" "$diffdir" "$smokedir"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
go build -o "$smokedir/nchecker" ./cmd/nchecker
"$smokedir/nchecker" serve -addr 127.0.0.1:0 -ready-file "$smokedir/ready" \
    -cache "$smokedir/cache" 2>"$smokedir/serve.log" &
serve_pid=$!
if ! go run ./scripts/servesmoke -ready-file "$smokedir/ready"; then
    echo "serve smoke failed; server log:" >&2
    cat "$smokedir/serve.log" >&2
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "serve did not shut down cleanly; server log:" >&2
    cat "$smokedir/serve.log" >&2
    exit 1
fi
serve_pid=

echo "== fleet smoke =="
# Coordinator + 2 workers on ephemeral ports: the same app containers
# scanned through the fleet must print byte-identical output to the
# single-process CLI, and all three processes must drain cleanly on
# SIGTERM.
trap 'rm -rf "$cachedir" "$diffdir" "$smokedir"; for p in "${serve_pid:-}" "${coord_pid:-}" "${w1_pid:-}" "${w2_pid:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done' EXIT
"$smokedir/nchecker" coord -addr 127.0.0.1:0 -ready-file "$smokedir/coord.ready" \
    2>"$smokedir/coord.log" &
coord_pid=$!
coord_addr=""
for i in $(seq 1 100); do
    [ -s "$smokedir/coord.ready" ] && { coord_addr=$(head -n1 "$smokedir/coord.ready"); break; }
    sleep 0.1
done
if [ -z "$coord_addr" ]; then
    echo "fleet smoke: coordinator never wrote its ready file" >&2
    cat "$smokedir/coord.log" >&2
    exit 1
fi
"$smokedir/nchecker" serve -addr 127.0.0.1:0 -ready-file "$smokedir/w1.ready" \
    -coord "http://$coord_addr" 2>"$smokedir/w1.log" &
w1_pid=$!
"$smokedir/nchecker" serve -addr 127.0.0.1:0 -ready-file "$smokedir/w2.ready" \
    -coord "http://$coord_addr" 2>"$smokedir/w2.log" &
w2_pid=$!
single_status=0
"$smokedir/nchecker" "$diffdir"/corpus/*.apk >"$smokedir/single.txt" || single_status=$?
if [ "$single_status" -gt 1 ]; then
    echo "fleet smoke: single-process reference run failed (exit $single_status)" >&2
    exit 1
fi
if ! go run ./scripts/fleetsmoke -ready-file "$smokedir/coord.ready" \
    -out "$smokedir/fleet.txt" "$diffdir"/corpus/*.apk; then
    echo "fleet smoke failed; logs:" >&2
    cat "$smokedir/coord.log" "$smokedir/w1.log" "$smokedir/w2.log" >&2
    exit 1
fi
cmp "$smokedir/single.txt" "$smokedir/fleet.txt"
for p in "$w1_pid" "$w2_pid" "$coord_pid"; do
    kill -TERM "$p"
    if ! wait "$p"; then
        echo "fleet smoke: process $p did not shut down cleanly; logs:" >&2
        cat "$smokedir/coord.log" "$smokedir/w1.log" "$smokedir/w2.log" >&2
        exit 1
    fi
done
coord_pid=; w1_pid=; w2_pid=

echo "== fuzz smoke =="
# Short fuzz bursts over the untrusted-input parsers: new panics or
# round-trip breaks fail the gate; found inputs land in testdata/fuzz as
# regression cases.
go test -run='^$' -fuzz=FuzzDecode -fuzztime=10s -timeout 5m ./internal/dex
go test -run='^$' -fuzz=FuzzTargetSiteSearch -fuzztime=10s -timeout 5m ./internal/dex
go test -run='^$' -fuzz=FuzzLazyIndex -fuzztime=10s -timeout 5m ./internal/dex
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s -timeout 5m ./internal/jimple
go test -run='^$' -fuzz=FuzzCacheEntry -fuzztime=10s -timeout 5m ./internal/cachestore

echo "check: all green"
