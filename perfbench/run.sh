#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and trace files stay under .bench_build at
# the repository root; the build needs no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
