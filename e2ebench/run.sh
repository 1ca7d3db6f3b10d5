#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload co_extract --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary, temporary
# databases and trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/e2ebench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# The module has no dependencies outside this checkout: never download.
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go -C e2ebench build -o "$out/e2ebench.bin" .
exec "$out/e2ebench.bin" "$@"
