#!/usr/bin/env bash
# Builds rmtd and the rmtdbench load generator from this checkout, then runs
# rmtdbench with the given arguments (see main.go for the flags). Run it from
# the repository root:
#
#   bash rmtdbench/run.sh --workload feasibility-hot --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache, temporary files and the go command's
# configuration all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rmtd" ]]; then
	echo "rmtdbench: run from the root of an rmt checkout (go.mod and cmd/rmtd not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's telemetry counters live under the user config directory;
# XDG_CONFIG_HOME keeps them in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/rmtd" ./cmd/rmtd
(cd "$root/rmtdbench" && go build -o "$out/rmtdbench" .)
exec "$out/rmtdbench" -rmtd "$out/rmtd" "$@"
