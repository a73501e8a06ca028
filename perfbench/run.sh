#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload loft-uniform --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the exported run directories stay in
# $CARGO_TARGET_DIR (default .bench_build) under the checkout; nothing is
# fetched, so the build works offline or fails.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/runs" "$@"
