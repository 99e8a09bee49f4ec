#!/usr/bin/env sh
# Chaos smoke test: boots real refrint-serve binaries with -fault-spec and
# asserts the containment story end to end — a panicking simulation fails
# only its job (reason "panic", healthz stays ok), a dead disk degrades the
# store without failing sweeps, and timeout_ms fails a job with a deadline
# reason while the worker lives on; a panic while completing a job fails it,
# and no job is left queued or running.  CI runs this next to the SSE and
# metrics smokes; locally: scripts/chaos-smoke.sh
set -eu

port="${CHAOS_SMOKE_PORT:-18084}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "chaos-smoke: FAIL: $1" >&2
    [ -f "$tmp/serve.log" ] && { echo "--- serve.log ---" >&2; cat "$tmp/serve.log" >&2; }
    exit 1
}

boot() {
    "$tmp/refrint-serve" -addr "127.0.0.1:$port" "$@" >"$tmp/serve.log" 2>&1 &
    pid=$!
    up=""
    for _ in $(seq 1 50); do
        if curl -s "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.2
    done
    [ -n "$up" ] || fail "server never came up on $base"
}

stop() {
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    pid=""
}

# submit POSTs a tiny sweep (extra JSON fields spliced in via $1) and prints
# the job id.
submit() {
    extra="${1:-}"
    body="{\"apps\":[\"FFT\"],\"retention_times_us\":[50],\"policies\":[\"R.valid\"],\"effort_scale\":0.05,\"workers\":2$extra}"
    resp=$(curl -s -X POST "$base/v1/sweeps" -d "$body")
    printf '%s' "$resp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1
}

# wait_state polls a job until it reaches the wanted terminal state.
wait_state() {
    id="$1"; want="$2"
    for _ in $(seq 1 150); do
        state=$(curl -s "$base/v1/sweeps/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n 1)
        [ "$state" = "$want" ] && return 0
        case "$state" in done|failed|cancelled) fail "job $id: state $state, want $want";; esac
        sleep 0.2
    done
    fail "job $id never reached $want (last: ${state:-none})"
}

go build -o "$tmp/refrint-serve" ./cmd/refrint-serve

# --- Phase 1: every simulation panics; the service must not care. ---
boot -fault-spec 'sim.run:panic'
id=$(submit) && [ -n "$id" ] || fail "no job id (panic phase)"
wait_state "$id" failed
curl -s "$base/v1/sweeps/$id" | grep -q '"reason": *"panic"' \
    || fail "panicking job missing reason=panic"
curl -s "$base/healthz" | grep -q '"status": *"ok"' \
    || fail "healthz not ok after contained panics"
curl -s "$base/metrics" | grep '^refrint_panics_total{site="sim"}' | grep -qv ' 0$' \
    || fail "refrint_panics_total{site=sim} not incremented"
stop

# --- Phase 2: the disk is dead; sweeps still succeed, store degrades. ---
boot -fault-spec 'store.put:error' -data-dir "$tmp/data"
id=$(submit) && [ -n "$id" ] || fail "no job id (degraded phase)"
wait_state "$id" done
curl -s "$base/healthz" | grep -q '"status": *"degraded"' \
    || fail "healthz not degraded with a dead disk"
curl -s "$base/metrics" | grep -q '^refrint_store_degraded 1$' \
    || fail "refrint_store_degraded != 1"
# The put that crossed the degrade threshold was absorbed and is counted.
curl -s "$base/metrics" | grep '^refrint_store_entries ' | grep -qv ' 0$' \
    || fail "refrint_store_entries is 0 with an absorbed put"
stop

# --- Phase 3: timeout_ms fails the job with a deadline, worker survives. ---
boot -job-timeout 10s
id=$(submit ',"timeout_ms":1') && [ -n "$id" ] || fail "no job id (deadline phase)"
wait_state "$id" failed
curl -s "$base/v1/sweeps/$id" | grep -q '"reason": *"deadline exceeded"' \
    || fail "timed-out job missing reason=deadline exceeded"
# The worker slot is free again: a follow-up sweep is admitted and finishes.
id=$(submit) && [ -n "$id" ] || fail "no follow-up job id after timeout"
wait_state "$id" done
stop

# --- Phase 4: job completion panics; the job fails, nothing is stranded. ---
boot -fault-spec 'job.complete:panic'
id=$(submit) && [ -n "$id" ] || fail "no job id (completion phase)"
wait_state "$id" failed
curl -s "$base/v1/sweeps/$id" | grep -q '"reason": *"panic"' \
    || fail "job whose completion panicked missing reason=panic"
curl -s "$base/metrics" | grep '^refrint_panics_total{site="complete"}' | grep -qv ' 0$' \
    || fail "refrint_panics_total{site=complete} not incremented"
# Every job the last scenario admitted has ended: none is queued or running.
if curl -s "$base/v1/sweeps" | grep -Eq '"state": *"(queued|running)"'; then
    fail "a job is still queued or running after the last scenario"
fi
stop

echo "chaos-smoke: OK (panics contained, store degraded gracefully, deadline enforced, no job stranded)"
