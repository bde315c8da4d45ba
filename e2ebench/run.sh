#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload builtin-warm --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, the Go tool's own config and
# telemetry files and the benchmark's scratch data all stay under
# .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
