#!/usr/bin/env sh
# Metrics/observability smoke test: boots a real refrint-serve (with the
# debug listener on), runs a tiny sweep, and asserts end to end that
#   - /metrics is well-formed: the new histogram families are present, their
#     bucket counts are cumulative, and +Inf matches _count;
#   - /v1/sweeps/{id}/trace returns a monotonic timeline ending terminal;
#   - X-Request-Id round-trips into the job's trace;
#   - the cell accounting is exact: with a store attached, a 3-cell sweep
#     costs exactly 3 cell misses, and the in-flight join counter exists;
#   - -workers sets the pool size, and the retired work-stealing,
#     queue-wait aging and by-rank eviction counters are gone from /metrics;
#   - GOMAXPROCS exceeds the simulation workers by at least one (when the
#     environment does not set it);
#   - pprof/expvar answer on -debug-addr and are NOT on the public listener;
#   - after a restart on the same -data-dir, resubmitting the sweep is a
#     200 cache hit served from its stored cells (no cell miss in the new
#     process), and its figures resolve by sweep key; so do those of a
#     subset sweep, born done from the stored cells.
# CI runs this next to sse-smoke.sh; locally: scripts/metrics-smoke.sh
set -eu

port="${METRICS_SMOKE_PORT:-18090}"
dbgport="${METRICS_SMOKE_DEBUG_PORT:-18091}"
base="http://127.0.0.1:$port"
dbg="http://127.0.0.1:$dbgport"
tmp="$(mktemp -d)"
pid=""

cleanup() {
    # Wait for the server to exit first: it writes the store's index while
    # it shuts down, which would race the removal of its data directory.
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "metrics-smoke: FAIL: $1" >&2
    [ -f "$2" ] && { echo "--- $2 ---" >&2; cat "$2" >&2; }
    [ -f "$tmp/serve.log" ] && { echo "--- serve.log ---" >&2; cat "$tmp/serve.log" >&2; }
    exit 1
}

# start_server boots refrint-serve on the smoke test's data directory and
# waits until it answers /healthz.
start_server() {
    "$tmp/refrint-serve" -addr "127.0.0.1:$port" -debug-addr "127.0.0.1:$dbgport" \
        -workers 2 -data-dir "$tmp/data" -log-format json >>"$tmp/serve.log" 2>&1 &
    pid=$!
    up=""
    for _ in $(seq 1 50); do
        if curl -sf "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.2
    done
    [ -n "$up" ] || fail "server never came up on $base" /dev/null
}

go build -o "$tmp/refrint-serve" ./cmd/refrint-serve
start_server

# Run one sweep to completion so the scheduler and execution histograms have
# observations, stamping a known request ID.
sweep='{"apps":["FFT"],"retention_times_us":[50,100],"policies":["R.valid"],"effort_scale":0.05,"workers":2}'
subset='{"apps":["FFT"],"retention_times_us":[50],"policies":["R.valid"],"effort_scale":0.05,"workers":2}'
job=$(curl -sf -X POST "$base/v1/sweeps" -H 'X-Request-Id: smoke-trace-1' -d "$sweep")
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id" ] || fail "no job id in response: $job" /dev/null

finished=""
for _ in $(seq 1 150); do
    state=$(curl -sf "$base/v1/sweeps/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n 1)
    if [ "$state" = "done" ]; then finished=1; break; fi
    case "$state" in failed|cancelled) fail "job ended $state" /dev/null ;; esac
    sleep 0.2
done
[ -n "$finished" ] || fail "job never completed" /dev/null

# --- /metrics: histogram families present and cumulative -------------------
curl -sf "$base/metrics" >"$tmp/metrics.txt" || fail "GET /metrics failed" /dev/null
for fam in refrint_http_request_seconds refrint_sched_wait_seconds refrint_exec_seconds; do
    grep -q "^# TYPE $fam histogram\$" "$tmp/metrics.txt" \
        || fail "missing histogram TYPE for $fam" "$tmp/metrics.txt"
    grep -q "^${fam}_bucket{.*le=\"+Inf\"}" "$tmp/metrics.txt" \
        || fail "$fam has no +Inf bucket" "$tmp/metrics.txt"
done
grep -q '^refrint_build_info{' "$tmp/metrics.txt" || fail "missing refrint_build_info" "$tmp/metrics.txt"

# Bucket counts must never decrease as le grows, per series, and +Inf must
# equal the series' _count.  Portable awk: the sample value is the last
# whitespace-separated token even when label values contain spaces.
awk '
    /_bucket\{/ && /le="/ {
        cnt = $NF + 0
        key = $0
        sub(/,?le="[^"]*"\} [0-9]+$/, "", key)
        if (key in prev && cnt < prev[key]) {
            print "non-cumulative bucket: " $0
            exit 1
        }
        prev[key] = cnt
        inf[key] = cnt
        next
    }
    /_count\{/ {
        cnt = $NF + 0
        key = $0
        sub(/\} [0-9]+$/, "", key)
        sub(/_count\{/, "_bucket{", key)
        if (key in inf && inf[key] != cnt) {
            print "+Inf bucket != _count: " $0 " (buckets say " inf[key] ")"
            exit 1
        }
    }
' "$tmp/metrics.txt" >"$tmp/awk.err" || fail "histogram lint: $(cat "$tmp/awk.err")" "$tmp/metrics.txt"

# --- cell accounting: misses count simulated cells, joins are exported -----
grep -q '^# TYPE refrint_cell_inflight_joins_total counter$' "$tmp/metrics.txt" \
    || fail "missing refrint_cell_inflight_joins_total" "$tmp/metrics.txt"
misses=$(sed -n 's/^refrint_cell_cache_misses_total \([0-9]*\)$/\1/p' "$tmp/metrics.txt")
[ "$misses" = "3" ] || fail "refrint_cell_cache_misses_total = '$misses' after one 3-cell sweep, want 3" "$tmp/metrics.txt"

# --- worker pool: -workers sizes it, with no steal or aging counter --------
# Preemption is visible: a counter per class of the preempted cell and the
# parked gauge, both zero after one uncontended sweep.
for class in interactive batch background; do
    grep -q "^refrint_cell_preemptions_total{class=\"$class\"} 0\$" "$tmp/metrics.txt" \
        || fail "missing refrint_cell_preemptions_total{class=\"$class\"} 0" "$tmp/metrics.txt"
done
grep -q '^# TYPE refrint_cells_parked gauge$' "$tmp/metrics.txt" \
    || fail "missing refrint_cells_parked gauge" "$tmp/metrics.txt"
grep -q '^refrint_cells_parked 0$' "$tmp/metrics.txt" \
    || fail "refrint_cells_parked is not 0 with nothing running" "$tmp/metrics.txt"
grep -q '^refrint_sched_workers 2$' "$tmp/metrics.txt" \
    || fail "refrint_sched_workers is not 2 under -workers 2" "$tmp/metrics.txt"
if grep -q 'refrint_sched_steal' "$tmp/metrics.txt"; then
    fail "the retired work-stealing counter is still exported" "$tmp/metrics.txt"
fi
if grep -q 'refrint_sched_aged_total' "$tmp/metrics.txt"; then
    fail "the retired queue-wait aging counter is still exported" "$tmp/metrics.txt"
fi
if grep -q 'refrint_store_evictions_rank_total' "$tmp/metrics.txt"; then
    fail "the retired by-rank eviction counter is still exported" "$tmp/metrics.txt"
fi

# --- spare P: more Go scheduler slots than simulation workers ---------------
# Unless GOMAXPROCS is set in the environment (then the server keeps it).
if [ -z "${GOMAXPROCS:-}" ]; then
    procs=$(sed -n 's/^refrint_gomaxprocs \([0-9]*\)$/\1/p' "$tmp/metrics.txt")
    workers=$(sed -n 's/^refrint_sched_workers \([0-9]*\)$/\1/p' "$tmp/metrics.txt")
    [ -n "$procs" ] && [ -n "$workers" ] && [ "$procs" -gt "$workers" ] \
        || fail "refrint_gomaxprocs = '$procs', want more than refrint_sched_workers = '$workers'" "$tmp/metrics.txt"
fi

# The scrape above flowed through the middleware: the next scrape must show
# the /metrics route itself.
curl -sf "$base/metrics" | grep -q 'refrint_http_request_seconds_count{route="GET /metrics"' \
    || fail "HTTP histogram did not record the /metrics route" "$tmp/metrics.txt"

# --- /trace: monotonic timeline, terminal tail, request ID -----------------
curl -sf "$base/v1/sweeps/$id/trace" >"$tmp/trace.json" || fail "GET trace failed" /dev/null
grep -q '"trace_id": *"smoke-trace-1"' "$tmp/trace.json" \
    || fail "trace did not carry the X-Request-Id" "$tmp/trace.json"
for phase in received validated admitted queued executing done; do
    grep -q "\"phase\": *\"$phase\"" "$tmp/trace.json" \
        || fail "trace missing phase $phase" "$tmp/trace.json"
done
# Timestamps in span order never decrease (the trailing Z/offset is stripped
# so a fractionless second still sorts before the same second with a
# fraction), and no span duration is negative.
grep -o '"at": *"[^"]*"' "$tmp/trace.json" | sed 's/.*"at": *"//;s/Z"$//;s/"$//' >"$tmp/ats.txt"
sort -C "$tmp/ats.txt" || fail "trace timeline is not monotonic" "$tmp/trace.json"
if grep -q '"seconds": *-' "$tmp/trace.json"; then
    fail "trace has a negative span duration" "$tmp/trace.json"
fi

# --- debug listener: private yes, public no --------------------------------
curl -sf "$dbg/debug/pprof/" >/dev/null || fail "pprof index not served on -debug-addr" /dev/null
curl -sf "$dbg/debug/vars" | grep -q '"memstats"' || fail "expvar not served on -debug-addr" /dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/debug/pprof/")
[ "$code" = "404" ] || fail "public listener serves /debug/pprof/ (code $code), must 404" /dev/null

# --- restart: the stored cells serve the sweep -----------------------------
key=$(printf '%s' "$job" | sed -n 's/.*"key": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$key" ] || fail "no sweep key in response: $job" /dev/null
kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
start_server
code=$(curl -s -o "$tmp/again.json" -w '%{http_code}' -X POST "$base/v1/sweeps" -d "$sweep")
[ "$code" = "200" ] || fail "resubmit after restart: status $code, want 200" "$tmp/again.json"
grep -q '"cache_hit": *true' "$tmp/again.json" || fail "resubmit after restart is not a cache hit" "$tmp/again.json"
curl -sf "$base/metrics" >"$tmp/metrics2.txt" || fail "GET /metrics after restart failed" /dev/null
misses=$(sed -n 's/^refrint_cell_cache_misses_total \([0-9]*\)$/\1/p' "$tmp/metrics2.txt")
[ "$misses" = "0" ] || fail "refrint_cell_cache_misses_total = '$misses' after restart, want 0" "$tmp/metrics2.txt"
code=$(curl -s -o "$tmp/figures.json" -w '%{http_code}' "$base/v1/sweeps/$key/figures")
[ "$code" = "200" ] || fail "GET figures by key after restart: status $code, want 200" "$tmp/figures.json"

# --- a subset sweep, born done from the stored cells, resolves by key -------
code=$(curl -s -o "$tmp/subset.json" -w '%{http_code}' -X POST "$base/v1/sweeps" -d "$subset")
[ "$code" = "200" ] || fail "subset sweep after restart: status $code, want 200" "$tmp/subset.json"
subkey=$(sed -n 's/.*"key": *"\([^"]*\)".*/\1/p' "$tmp/subset.json" | head -n 1)
[ -n "$subkey" ] && [ "$subkey" != "$key" ] || fail "subset sweep key '$subkey' missing or equal to the full sweep's" "$tmp/subset.json"
code=$(curl -s -o "$tmp/subfigures.json" -w '%{http_code}' "$base/v1/sweeps/$subkey/figures")
[ "$code" = "200" ] || fail "GET figures by subset key: status $code, want 200" "$tmp/subfigures.json"

echo "metrics-smoke: OK ($id traced, histograms cumulative, debug listener isolated, restart and subset served from stored cells)"
