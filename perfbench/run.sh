#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload a2a-small --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and traced-run span files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the current directory,
# so the run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOWORK=off \
	GOPROXY=off GOFLAGS=-mod=mod PERFBENCH_OUT=$out
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
