#!/usr/bin/env bash
# Builds the charos benchmark from the source in this checkout and runs it.
# Run it from the repository root:
#
#   bash charosbench/run.sh --workload characterize --seed 1 --seconds 10 --trace 0
#   bash charosbench/run.sh compare [-force] OLD NEW
#
# Every build and run artifact (Go build cache, the binary, result files,
# traced-run ledgers) lands under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout and never
# reach for a newer toolchain or a module proxy.
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/charosbench" && go build -o "$out/charosbench" .)
exec "$out/charosbench" "$@"
