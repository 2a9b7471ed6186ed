#!/usr/bin/env bash
# Builds the tcq benchmark from the source tree it sits in and runs it.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# All build state (binary, Go build cache, temp files) stays under
# $CARGO_TARGET_DIR (default .bench_build) at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
(
	cd "$root/perfbench"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off \
		GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
