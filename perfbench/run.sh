#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload clean_wire --seed 1 --seconds 30 --trace 0
#
# Every build artefact (compiler cache, binary, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
