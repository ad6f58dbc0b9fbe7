#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload uniprot-csv --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, scratch data, traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/xdg"

# Keep the Go toolchain on the local install and every write inside the
# checkout: build cache, temporary files, module path and the telemetry
# and env files Go keeps under the user config directory.
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/xdg"

go -C "$root/perfbench" build -o "$out/perfbench" .

# The checkout is not a git repository, so the code under test is
# identified by a digest of its Go sources instead of a commit.
BENCH_SOURCE_DIGEST=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
export BENCH_SOURCE_DIGEST

exec "$out/perfbench" "$@"
