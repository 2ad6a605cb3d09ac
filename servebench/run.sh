#!/usr/bin/env bash
# Builds hgserve and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash servebench/run.sh --workload enumerate --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
mkdir -p "$out/bin"
(cd "$root" && go build -o "$out/bin/hgserve" ./cmd/hgserve) >&2
(cd "$root/servebench" && go build -o "$out/bin/servebench" .) >&2
cd "$root"
exec "$out/bin/servebench" -hgserve "$out/bin/hgserve" -workdir "$out/work" "$@"
