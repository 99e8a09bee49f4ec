#!/usr/bin/env sh
# SSE smoke test: boots a real refrint-serve, runs a tiny sweep, and asserts
# the /events streams behave end to end — state event, terminal event, stream
# close, terminal-snapshot replay on reconnect, a live firehose, and progress
# that never runs backwards on any topic of either stream.  Then it
# restarts the server on the same port and checks a firehose reconnecting
# with a Last-Event-ID from the old process still sees a new job end.  CI
# runs this next to the fuzz and bench smokes; locally: scripts/sse-smoke.sh
set -eu

port="${SSE_SMOKE_PORT:-18080}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""

cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "sse-smoke: FAIL: $1" >&2
    [ -f "$2" ] && { echo "--- $2 ---" >&2; cat "$2" >&2; }
    [ -f "$tmp/serve.log" ] && { echo "--- serve.log ---" >&2; cat "$tmp/serve.log" >&2; }
    exit 1
}

# check_progress_order fails if the "done" values of one topic's progress
# events in an SSE transcript ever decrease.
check_progress_order() {
    awk '
        /^event: / { ev = substr($0, 8) }
        /^data: / && ev == "progress" {
            id = $0; sub(/.*"id":"/, "", id); sub(/".*/, "", id)
            d = $0; sub(/.*"done":/, "", d); sub(/[^0-9].*/, "", d)
            if ((id in last) && d + 0 < last[id]) { printf "%s: done %d after %d\n", id, d, last[id]; bad = 1 }
            last[id] = d + 0
        }
        END { exit bad }
    ' "$1" >"$tmp/order.txt" || fail "progress ran backwards: $(cat "$tmp/order.txt")" "$1"
}

# start_server boots refrint-serve and waits until it answers /healthz.
start_server() {
    "$tmp/refrint-serve" -addr "127.0.0.1:$port" -event-heartbeat 1s >>"$tmp/serve.log" 2>&1 &
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

# Firehose first, so it observes the whole job lifecycle below.
curl -sN --max-time 60 "$base/v1/events" >"$tmp/firehose.txt" &
fhpid=$!

job=$(curl -sf -X POST "$base/v1/sweeps" \
    -d '{"apps":["FFT"],"retention_times_us":[50],"policies":["R.valid"],"effort_scale":0.05,"workers":2}')
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id" ] || fail "no job id in response: $job" /dev/null

# curl -N streams until the server closes at the terminal event; if the
# stream never closed, --max-time would trip and curl would exit non-zero.
curl -sN --max-time 120 "$base/v1/sweeps/$id/events" >"$tmp/events.txt" \
    || fail "job stream did not close by itself" "$tmp/events.txt"
grep -q '^event: state' "$tmp/events.txt" || fail "missing state event" "$tmp/events.txt"
grep -q '^event: done'  "$tmp/events.txt" || fail "missing terminal done event" "$tmp/events.txt"
n=$(grep -c '^event: \(done\|failed\|cancelled\)' "$tmp/events.txt")
[ "$n" -eq 1 ] || fail "want exactly 1 terminal event, got $n" "$tmp/events.txt"
check_progress_order "$tmp/events.txt"

# Reconnecting after the job finished still gets closure (snapshot replay).
curl -sN --max-time 30 -H 'Last-Event-ID: 1' "$base/v1/sweeps/$id/events" >"$tmp/replay.txt" \
    || fail "replay stream did not close by itself" "$tmp/replay.txt"
grep -q '^event: done' "$tmp/replay.txt" || fail "replay missing terminal event" "$tmp/replay.txt"

# The firehose saw the same lifecycle end-to-end.
kill "$fhpid" 2>/dev/null || true
wait "$fhpid" 2>/dev/null || true
grep -q '^event: done' "$tmp/firehose.txt" || fail "firehose missed the job's terminal event" "$tmp/firehose.txt"
check_progress_order "$tmp/firehose.txt"

# Restart on the same port.  Event IDs restart with the process, so a
# dashboard reconnecting with the last ID it saw before the restart must
# still get the new server's events.
kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
start_server
curl -sN --max-time 60 -H 'Last-Event-ID: 1000000' "$base/v1/events" >"$tmp/firehose2.txt" &
fhpid=$!
subscribed=""
for _ in $(seq 1 50); do
    if curl -sf "$base/metrics" | grep -q '^refrint_event_subscribers [1-9]'; then subscribed=1; break; fi
    sleep 0.2
done
[ -n "$subscribed" ] || fail "firehose never subscribed after restart" "$tmp/firehose2.txt"
job2=$(curl -sf -X POST "$base/v1/sweeps" \
    -d '{"apps":["LU"],"retention_times_us":[50],"policies":["R.valid"],"effort_scale":0.05,"workers":2}')
id2=$(printf '%s' "$job2" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id2" ] || fail "no job id in response after restart: $job2" /dev/null
ended=""
for _ in $(seq 1 300); do
    if grep -A2 '^event: done' "$tmp/firehose2.txt" | grep -q "\"id\":\"$id2\""; then ended=1; break; fi
    sleep 0.2
done
kill "$fhpid" 2>/dev/null || true
wait "$fhpid" 2>/dev/null || true
[ -n "$ended" ] || fail "firehose with a stale Last-Event-ID missed $id2's done event after restart" "$tmp/firehose2.txt"

echo "sse-smoke: OK ($id streamed, replayed, and closed cleanly; $id2 seen through a restart)"
