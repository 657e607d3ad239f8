#!/usr/bin/env bash
# Builds the harness from source and runs it, keeping everything the Go
# toolchain writes (build cache, temp files, telemetry counters) inside the
# checkout under .bench_build/. Arguments go to the harness unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false \
	go build -C bench -o "$out/lcbench" .
exec "$out/lcbench" "$@"
