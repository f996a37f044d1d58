#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload serve_point --seed 1 --seconds 20 --trace 0
# Every build product and cache stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
