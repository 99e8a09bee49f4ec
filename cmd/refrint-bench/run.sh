#!/usr/bin/env bash
# Builds refrint-bench from source and runs it with the given arguments:
#
#   bash cmd/refrint-bench/run.sh                                # every workload
#   bash cmd/refrint-bench/run.sh --workload stream-refrint --seed 3 --seconds 10 --trace 0
#   bash cmd/refrint-bench/run.sh compare old/*.json -- new/*.json
#
# Everything the build and the runs write (binaries, the Go build cache,
# temporary files, result files, the service's store) stays under
# .bench_build at the repository root.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$bench_dir/../.." && pwd)
out="$root/.bench_build"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
mkdir -p "$TMPDIR" "$out/bin"

go -C "$bench_dir" build -o "$out/bin/refrint-bench" .
exec "$out/bin/refrint-bench" "$@"
