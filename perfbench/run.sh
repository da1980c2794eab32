#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# arguments given. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache and the trace span files all go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout. A
# checkout without the repository's Go module fails to build, and the
# script then exits nonzero without printing a result.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
