#!/usr/bin/env sh
# Shutdown smoke test: boots a real refrint-serve, keeps both workers busy
# with a long background sweep, preempts its cells with an interactive
# burst so some sit parked with half-run simulations, sends SIGTERM and
# asserts the graceful-drain contract — new submissions get 503 with
# Retry-After, /healthz flips to "closing" (503), and the process exits
# cleanly once -drain-timeout expires, parked cells and all.  CI runs this
# next to the SSE and metrics smokes; locally: scripts/shutdown-smoke.sh
set -eu

port="${SHUTDOWN_SMOKE_PORT:-18085}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "shutdown-smoke: FAIL: $1" >&2
    [ -f "$tmp/serve.log" ] && { echo "--- serve.log ---" >&2; cat "$tmp/serve.log" >&2; }
    exit 1
}

go build -o "$tmp/refrint-serve" ./cmd/refrint-serve
"$tmp/refrint-serve" -addr "127.0.0.1:$port" -workers 2 -drain-timeout 3s >"$tmp/serve.log" 2>&1 &
pid=$!

up=""
for _ in $(seq 1 50); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || fail "server never came up on $base"

metric() {
    curl -sf "$base/metrics" | sed -n "s/^$1 \([0-9]*\)\$/\1/p"
}

# A full-effort background sweep occupies both workers far longer than the
# drain window, so the drain below is observable and the incomplete-drain
# abort path runs.
job=$(curl -sf -X POST "$base/v1/sweeps" -d '{"apps":["FFT"],"effort_scale":1.0,"priority":"background"}')
printf '%s' "$job" | grep -q '"id"' || fail "long sweep not admitted: $job"
busy=""
for _ in $(seq 1 100); do
    [ "$(metric refrint_sched_busy_workers)" = "2" ] && { busy=1; break; }
    sleep 0.05
done
[ -n "$busy" ] || fail "the background sweep never occupied both workers"

# An interactive burst preempts the running background cells, which wait
# parked until the burst is done — past the SIGTERM below.
for seed in 1 2 3; do
    curl -sf -X POST "$base/v1/sweeps" -d "{\"apps\":[\"FFT\"],\"policies\":[\"R.valid\"],\"retention_times_us\":[50],\"effort_scale\":1.0,\"seed\":$seed,\"priority\":\"interactive\"}" \
        | grep -q '"id"' || fail "interactive sweep $seed not admitted"
done
parked=""
for _ in $(seq 1 100); do
    n=$(metric refrint_cells_parked)
    [ -n "$n" ] && [ "$n" -gt 0 ] && { parked=$n; break; }
    sleep 0.02
done
[ -n "$parked" ] || fail "no background cell was parked by the interactive burst"
[ "$parked" -le 2 ] || fail "$parked cells parked on 2 workers"

kill -TERM "$pid"
sleep 0.5 # let the drain begin; it holds the server up for ~3s more

code=$(curl -s -o "$tmp/reject.json" -w '%{http_code}' -X POST "$base/v1/sweeps" \
    -d '{"apps":["FFT"],"effort_scale":0.05}' || true)
[ "$code" = "503" ] || fail "draining submission got HTTP $code, want 503"
curl -s -D "$tmp/reject.hdr" -o /dev/null -X POST "$base/v1/sweeps" \
    -d '{"apps":["FFT"],"effort_scale":0.05}' || true
grep -qi '^retry-after:' "$tmp/reject.hdr" || fail "draining 503 carried no Retry-After"

code=$(curl -s -o "$tmp/healthz.json" -w '%{http_code}' "$base/healthz" || true)
[ "$code" = "503" ] || fail "draining healthz got HTTP $code, want 503"
grep -q '"status": *"closing"' "$tmp/healthz.json" || fail "draining healthz not closing"

# The process must exit on its own: drain window (3s) + hard stop, well
# within this budget.
down=""
for _ in $(seq 1 100); do
    if ! kill -0 "$pid" 2>/dev/null; then down=1; break; fi
    sleep 0.2
done
[ -n "$down" ] || fail "server still alive 20s after SIGTERM"
wait "$pid" 2>/dev/null && status=0 || status=$?
pid=""
[ "$status" -eq 0 ] || fail "server exited with status $status"
grep -q "draining" "$tmp/serve.log" || fail "no drain log line"

echo "shutdown-smoke: OK ($parked parked at SIGTERM; drained, rejected new work with 503, exited cleanly)"
