#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload pipe-large --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh --compare before.jsonl,after.jsonl
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go build cache, the test binary, and the
# per-run scratch directories. The benchmark is a test binary (go test -c)
# because its client goroutines live in _test.go files; see README.md.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

bin="$out/bench.test"
(cd "$here" && go test -c -o "$bin" .) >&2
exec "$bin" "$@"
