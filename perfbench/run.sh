#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload daemon-distinct --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the checkout. Outside a full checkout (no go.mod one
# level up) the build fails and the script exits non-zero.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
