#!/bin/sh
# The benchmark's command: build the bench module, then run it with the
# arguments given. Run from the root of a checkout:
#
#   sh bench/run.sh --workload serve-write --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache and the scratch data directories all live
# under .bench_build/ (which .gitignore names).
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Result files record the commit: BENCH_COMMIT if set, else git's HEAD,
# else (the driver's checkout is not a git repository) "unknown".
commit=${BENCH_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}
# HOME moves the go command's own files (telemetry counters, env config)
# into the checkout as well.
(cd "$root/bench" && HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -ldflags "-X main.commit=$commit" -o "$build/granula-bench" .) >&2
TMPDIR="$build/tmp" exec "$build/granula-bench" "$@"
