#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 25 --trace 0
#
# Build outputs, generated inputs and traces stay under .bench_build/.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
