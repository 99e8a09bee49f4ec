#!/usr/bin/env sh
# Runs the hot-path benchmark suite the CI perf gate compares against
# bench/baseline.txt.  Usage: scripts/bench.sh [output-file]
#
# BENCH_COUNT / BENCH_PATTERN can override the defaults, e.g. a quick local
# check with BENCH_COUNT=1.
set -eu

out="${1:-}"
count="${BENCH_COUNT:-5}"
pattern="${BENCH_PATTERN:-BenchmarkRun|BenchmarkAccessSteadyState|BenchmarkProbe|BenchmarkSentryInterruptProcessing|BenchmarkSentryDrainScaledL3|BenchmarkPeriodicSweepProcessing|BenchmarkDemandTouch|BenchmarkSubmitDequeue|BenchmarkHistogramObserve|BenchmarkGeneratorNext|BenchmarkAppReset|BenchmarkQuickSweep|BenchmarkServiceBackgroundRound}"

run() {
    go test -run '^$' -bench "$pattern" -benchmem -count "$count" \
        ./internal/cache ./internal/sim ./internal/core ./internal/sched ./internal/server \
        ./internal/workload ./internal/sweep
}

# No pipe around `run`: POSIX sh has no pipefail, and `run | tee` would
# let a failing benchmark suite exit 0 through tee.
if [ -n "$out" ]; then
    run > "$out"
    cat "$out"
else
    run
fi
