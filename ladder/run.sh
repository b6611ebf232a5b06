#!/usr/bin/env bash
# Builds the ladder benchmark and the rbb-serve binary it drives from the
# sources of the checkout it is started in, then runs the benchmark with the
# given arguments. Run it from the repository root:
#
#   bash ladder/run.sh --workload stationary --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's local telemetry
# counters (kept under XDG_CONFIG_HOME), checkpoints, serve data directories
# and trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/ladder" ]]; then
	echo "ladder: run from the repository root (no go.mod or ladder/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
go -C "$root/ladder" build -o "$out/ladder" .
go -C "$root/ladder" build -o "$out/rbb-serve" repro/cmd/rbb-serve
exec "$out/ladder" -out "$out" "$@"
